"""Golden-output tests for the insights reporters."""

import json

from repro.insights import (
    Diagnosis,
    Insight,
    Recommendation,
    Severity,
    format_report,
    report_to_json,
)


def sample_diagnosis():
    diag = Diagnosis()
    diag.add(
        Insight(
            rule="single-writer",
            severity=Severity.OK,
            title="writes spread across nodes",
            detail="busiest node moves 26% of the write bytes",
            op="write",
        )
    )
    diag.add(
        Insight(
            rule="small-requests",
            severity=Severity.HIGH,
            title="small write requests dominate",
            detail=(
                "93% of 1468 write requests are smaller than 128 KiB "
                "and they carry 64% of the bytes"
            ),
            op="write",
            evidence={"requests": 1468, "small_count_fraction": 0.93},
            recommendations=(
                Recommendation(
                    "set_hint",
                    "coalesce consecutive small writes client-side "
                    "(write-behind buffering)",
                    {"name": "wb_buffer_size", "value": 4 * 1024 * 1024},
                ),
            ),
        )
    )
    diag.sort()
    diag.summary = {
        "events": 1468,
        "writes": 1468,
        "files": 1,
        "nprocs": 8,
        "strategy": "mpi-io",
    }
    return diag


GOLDEN = """\
repro.insights -- I/O diagnosis
===============================
1468 events  1468 writes  1 files  P=8  strategy=mpi-io
1 HIGH  0 WARN  1 OK

[HIGH] small-requests (write): small write requests dominate
       93% of 1468 write requests are smaller than 128 KiB and they carry 64% of the bytes
       -> coalesce consecutive small writes client-side (write-behind buffering)
[OK] single-writer (write): writes spread across nodes"""


def test_format_report_golden_plain_text():
    assert format_report(sample_diagnosis(), color=False) == GOLDEN


def test_format_report_color_uses_ansi():
    out = format_report(sample_diagnosis(), color=True)
    assert "\x1b[1;31m" in out  # HIGH in bold red
    assert "\x1b[0m" in out
    # stripping the codes recovers the plain form
    import re

    assert re.sub(r"\x1b\[[0-9;]*m", "", out) == GOLDEN


def test_format_report_issues_only_hides_ok():
    out = format_report(sample_diagnosis(), color=False, show_ok=False)
    assert "[OK]" not in out
    assert "[HIGH]" in out


def test_format_report_empty_diagnosis():
    out = format_report(Diagnosis(), color=False)
    assert "no findings" in out
    assert "0 HIGH  0 WARN  0 OK" in out


def test_report_to_json_round_trip():
    diag = sample_diagnosis()
    data = json.loads(report_to_json(diag))
    assert data == diag.to_dict()
    assert data["counts"] == {"HIGH": 1, "WARN": 0, "INFO": 0, "OK": 1}
    assert data["summary"]["strategy"] == "mpi-io"
    high = data["insights"][0]
    assert high["severity"] == "HIGH"
    assert high["recommendations"][0]["params"]["name"] == "wb_buffer_size"
