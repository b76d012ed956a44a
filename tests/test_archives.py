import pathlib

from archived_runs import archive_names

REPORT_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports"


def test_every_archived_report_has_a_regenerating_test():
    # a report in reports/ that no test regenerates can go stale unseen
    names = archive_names()
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(path.name for path in REPORT_DIR.iterdir())
