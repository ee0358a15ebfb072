"""Pinned stage digests, o_sort logs and results for a small fixed run matrix.

A change that keeps the trace and the results keeps every value here: the
hex stage digests of each run, its `osort_log`, and a sha256 of the
per-party results.  The matrix is pr, bfs and wcc on the oblige and
sortscan engines, Kronecker 2^8/2^10 split over 3 parties, 2 workers, t=2,
a 5000-byte OM (b = 10 for pr and 5 for bfs and wcc, each with a short last
chunk), at ELEMENT and 64-byte granularity.

A change that alters the trace on purpose prints the new tables with

    PYTHONPATH=src python tests/test_golden.py

pastes them below, and says why in its description.
"""

import hashlib
import json

import numpy as np
import pytest

from oblige.kron import assign_parties, generate_kronecker, split_parties
from oblige.omsim import CACHELINE, ELEMENT
from oblige.pipeline import run_end_to_end

APPS = ("pr", "bfs", "wcc")
ENGINES = ("oblige", "sortscan")
GRANULARITIES = {"element": ELEMENT, "64B": CACHELINE}
OM_BYTES = 5000
SALT = b"\x05" * 16


def _parties():
    src, dst = generate_kronecker(8, 1 << 10, seed=3)
    return split_parties(src, dst, assign_parties(1 << 8, 3, "random", seed=4), 3)


def _results_sha(results):
    h = hashlib.sha256()
    for i in sorted(results):
        keys = sorted(results[i])
        h.update(np.asarray(keys, dtype=np.int64).tobytes())
        h.update(np.asarray([results[i][key] for key in keys]).tobytes())
    return h.hexdigest()


def _run(app, engine, granularity):
    results, report, sim = run_end_to_end(
        _parties(), app, 2, OM_BYTES, SALT, workers=2, engine=engine,
        granularity=GRANULARITIES[granularity], source_key=0)
    return report.stage_digests, sim.osort_log, _results_sha(results)


STAGE_DIGESTS = {
    ("pr", "oblige", "element"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "88a39cf03c083edff2c7a369d62f8b7bf26003e5b3335158252806795e1b885b",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "633ba98a4ac6ff8d067130e16628b35f272f57636503dbf85a571cb00740c7f6",
        "compute": "7b9075804fa72feee32da1e0a31c88e712119a8b5fe5479dc09235c722b65d7c",
        "post_process": "cc9c003e6dcf5dee4512a01a1ecc1fe34c083309d6dc788c44b074a303d37198",
    },
    ("pr", "oblige", "64B"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "e874f69592de3ce242175183678616968245f593e460537021beb5b271c1ac1d",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "89817e8f4e48da01ebbd4839d297fd70a13f4743e243e939c413894ba46c08bd",
        "compute": "ac5e7683c3246a985b13ee5a644e9d459358b638f83f203a5ed04e79c00dee3f",
        "post_process": "438d2d60ae9beefe1f3da5bd103940a2f2eb01b4530c750d70b410c8f9d1f72a",
    },
    ("pr", "sortscan", "element"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "88a39cf03c083edff2c7a369d62f8b7bf26003e5b3335158252806795e1b885b",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "633ba98a4ac6ff8d067130e16628b35f272f57636503dbf85a571cb00740c7f6",
        "compute": "54ba476c363498eada9a211e088b48fdc5190f85cf16318d43ffb354a01bc587",
        "post_process": "75f70187650d4a466a5e9c1e74891958f42a9a1c040a35fe44214b7c00ef8841",
    },
    ("pr", "sortscan", "64B"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "e874f69592de3ce242175183678616968245f593e460537021beb5b271c1ac1d",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "89817e8f4e48da01ebbd4839d297fd70a13f4743e243e939c413894ba46c08bd",
        "compute": "fe3a1fcb0bd6f22838f726c27a9b25c0828cd73bb5aeb2eb4d6b5e7b260428c5",
        "post_process": "5bfdbb5436fdf5706e45a40725afd0e3955a6415a2f795dd4e56a577d40417d8",
    },
    ("bfs", "oblige", "element"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "88a39cf03c083edff2c7a369d62f8b7bf26003e5b3335158252806795e1b885b",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "ef2a270713998943a14e49fa7c6bda815060f0d97e4e8e3b0f6897b3c2f2b519",
        "compute": "3bf58d4106ce66a5886d87d29d0af7f1a83cc8ea145d6e90f0c4a48c32086e22",
        "post_process": "cc9c003e6dcf5dee4512a01a1ecc1fe34c083309d6dc788c44b074a303d37198",
    },
    ("bfs", "oblige", "64B"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "e874f69592de3ce242175183678616968245f593e460537021beb5b271c1ac1d",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "51cd621853058d6df2fb6c8fe6561038cdcba11707f02061a0c7557c6abef849",
        "compute": "3ba026a335a19499b82584192202bdab465a3633576b3e31f66d1049b26e72ab",
        "post_process": "438d2d60ae9beefe1f3da5bd103940a2f2eb01b4530c750d70b410c8f9d1f72a",
    },
    ("bfs", "sortscan", "element"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "88a39cf03c083edff2c7a369d62f8b7bf26003e5b3335158252806795e1b885b",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "ef2a270713998943a14e49fa7c6bda815060f0d97e4e8e3b0f6897b3c2f2b519",
        "compute": "8aa66891424c388e06e02fb1d62d48dc5be7d711a0673dad2634ec2ffe5fd814",
        "post_process": "75f70187650d4a466a5e9c1e74891958f42a9a1c040a35fe44214b7c00ef8841",
    },
    ("bfs", "sortscan", "64B"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "e874f69592de3ce242175183678616968245f593e460537021beb5b271c1ac1d",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "51cd621853058d6df2fb6c8fe6561038cdcba11707f02061a0c7557c6abef849",
        "compute": "7fd50dd83d0a170f922b5223a899f472838b82133198fc7ac60bdc4b38bf1f54",
        "post_process": "5bfdbb5436fdf5706e45a40725afd0e3955a6415a2f795dd4e56a577d40417d8",
    },
    ("wcc", "oblige", "element"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "88a39cf03c083edff2c7a369d62f8b7bf26003e5b3335158252806795e1b885b",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "8ce3e74a48bd53d0e1ba759f623a67bd9f79e95baf6e30612e1a20363c90849c",
        "compute": "0952ae18c552ea4000790d261e3506a79e32b10afc6b7c7ecf3132ff16536d4f",
        "post_process": "cc9c003e6dcf5dee4512a01a1ecc1fe34c083309d6dc788c44b074a303d37198",
    },
    ("wcc", "oblige", "64B"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "e874f69592de3ce242175183678616968245f593e460537021beb5b271c1ac1d",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "2b8d78dd39c1da9331affdd2f157c7dddadd778a1809a9255a4ec98af6fc89bd",
        "compute": "eb5cce49e4c93400aaf8e005aeb54319d97b6b852582a1e743834ad15aae170f",
        "post_process": "438d2d60ae9beefe1f3da5bd103940a2f2eb01b4530c750d70b410c8f9d1f72a",
    },
    ("wcc", "sortscan", "element"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "88a39cf03c083edff2c7a369d62f8b7bf26003e5b3335158252806795e1b885b",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "8ce3e74a48bd53d0e1ba759f623a67bd9f79e95baf6e30612e1a20363c90849c",
        "compute": "4285ac59b54c830c2b5ac41f61beceadee32672530f425db31cebd4f5f8918a2",
        "post_process": "75f70187650d4a466a5e9c1e74891958f42a9a1c040a35fe44214b7c00ef8841",
    },
    ("wcc", "sortscan", "64B"): {
        "party_setup": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "declare_n": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vertex_mapping": "e874f69592de3ce242175183678616968245f593e460537021beb5b271c1ac1d",
        "edge_preprocess": "566d3999fda6cc1a138730ff4b53faa41488bce413fea87bf0bff16ff1ccb0c7",
        "merge_grids": "2b8d78dd39c1da9331affdd2f157c7dddadd778a1809a9255a4ec98af6fc89bd",
        "compute": "38748ae9f068dcaeea5c83a09a26fb32965e4b9e1a436956250884f6fad14540",
        "post_process": "5bfdbb5436fdf5706e45a40725afd0e3955a6415a2f795dd4e56a577d40417d8",
    },
}

OSORT_LOGS = {
    ("pr", "oblige"): [
        {"n": 448, "padded": 512, "segment": 64, "compare_exchanges": 1536},
        {"n": 704, "padded": 1024, "segment": 64, "compare_exchanges": 5120},
    ],
    ("pr", "sortscan"): [
        {"n": 448, "padded": 512, "segment": 64, "compare_exchanges": 1536},
        {"n": 1280, "padded": 2048, "segment": 64, "compare_exchanges": 15360},
        {"n": 1280, "padded": 2048, "segment": 64, "compare_exchanges": 15360},
        {"n": 1280, "padded": 2048, "segment": 64, "compare_exchanges": 15360},
        {"n": 1280, "padded": 2048, "segment": 64, "compare_exchanges": 15360},
        {"n": 1280, "padded": 2048, "segment": 64, "compare_exchanges": 15360},
        {"n": 256, "padded": 256, "segment": 64, "compare_exchanges": 384},
        {"n": 704, "padded": 1024, "segment": 64, "compare_exchanges": 5120},
    ],
    ("bfs", "oblige"): [
        {"n": 448, "padded": 512, "segment": 64, "compare_exchanges": 1536},
        {"n": 704, "padded": 1024, "segment": 64, "compare_exchanges": 5120},
    ],
    ("bfs", "sortscan"): [
        {"n": 448, "padded": 512, "segment": 64, "compare_exchanges": 1536},
        {"n": 1280, "padded": 2048, "segment": 64, "compare_exchanges": 15360},
        {"n": 1280, "padded": 2048, "segment": 64, "compare_exchanges": 15360},
        {"n": 1280, "padded": 2048, "segment": 64, "compare_exchanges": 15360},
        {"n": 1280, "padded": 2048, "segment": 64, "compare_exchanges": 15360},
        {"n": 256, "padded": 256, "segment": 64, "compare_exchanges": 384},
        {"n": 704, "padded": 1024, "segment": 64, "compare_exchanges": 5120},
    ],
    ("wcc", "oblige"): [
        {"n": 448, "padded": 512, "segment": 64, "compare_exchanges": 1536},
        {"n": 704, "padded": 1024, "segment": 64, "compare_exchanges": 5120},
    ],
    ("wcc", "sortscan"): [
        {"n": 448, "padded": 512, "segment": 64, "compare_exchanges": 1536},
        {"n": 2304, "padded": 4096, "segment": 64, "compare_exchanges": 43008},
        {"n": 2304, "padded": 4096, "segment": 64, "compare_exchanges": 43008},
        {"n": 2304, "padded": 4096, "segment": 64, "compare_exchanges": 43008},
        {"n": 2304, "padded": 4096, "segment": 64, "compare_exchanges": 43008},
        {"n": 256, "padded": 256, "segment": 64, "compare_exchanges": 384},
        {"n": 704, "padded": 1024, "segment": 64, "compare_exchanges": 5120},
    ],
}

RESULTS_SHA256 = {
    ("pr", "oblige"): "5da66560f4009b5435981e2d2004c7339ca72081ff8e8d1112b8e2d36cf6de79",
    ("pr", "sortscan"): "478146641f029af1503eecb80c04c590fcf1c04ed69f96668b28f8395dd78c74",
    ("bfs", "oblige"): "a2a56f59d30778db29090065057ab91ce5f1fd520dca2e1ca3988b2589563789",
    ("bfs", "sortscan"): "a2a56f59d30778db29090065057ab91ce5f1fd520dca2e1ca3988b2589563789",
    ("wcc", "oblige"): "3a047009ce495be137e381a50a9532c23d9fc3acca6854a6ce6e2d6ff3a58407",
    ("wcc", "sortscan"): "3a047009ce495be137e381a50a9532c23d9fc3acca6854a6ce6e2d6ff3a58407",
}


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("app", APPS)
def test_golden_run(app, engine, granularity):
    stages, log, sha = _run(app, engine, granularity)
    assert stages == STAGE_DIGESTS[app, engine, granularity]
    assert log == OSORT_LOGS[app, engine]
    assert sha == RESULTS_SHA256[app, engine]


def _literal(value):
    """`value` as Python source with double-quoted strings."""
    return json.dumps(value) if isinstance(value, (str, dict)) else repr(value).replace("'", '"')


def _print_tables():
    digests, osort_logs, results = {}, {}, {}
    for app in APPS:
        for engine in ENGINES:
            for granularity in GRANULARITIES:
                stages, log, sha = _run(app, engine, granularity)
                digests[app, engine, granularity] = stages
                osort_logs[app, engine] = log
                results[app, engine] = sha
    print("STAGE_DIGESTS = {")
    for key, stages in digests.items():
        print("    %s: {" % _literal(key))
        for stage, digest in stages.items():
            print("        %s: %s," % (_literal(stage), _literal(digest)))
        print("    },")
    print("}\n\nOSORT_LOGS = {")
    for key, log in osort_logs.items():
        print("    %s: [" % _literal(key))
        for entry in log:
            print("        %s," % _literal(entry))
        print("    ],")
    print("}\n\nRESULTS_SHA256 = {")
    for key, sha in results.items():
        print("    %s: %s," % (_literal(key), _literal(sha)))
    print("}")


if __name__ == "__main__":
    _print_tables()
