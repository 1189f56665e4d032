"""Repository-wide pytest options.

``--write-results`` makes the benchmarks under ``benchmarks/`` write the
tracked ``benchmarks/results/*.txt`` tables and
``BENCH_replay_throughput.json`` (``make bench`` passes it).  Without it
they write the same files under a pytest temp dir, so a plain test run
leaves the checkout unchanged.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--write-results",
        action="store_true",
        help="write benchmark tables and the BENCH trajectory file into the repository",
    )
