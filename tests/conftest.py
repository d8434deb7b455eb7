"""Shared reference for the byte format of the CSV tables the package writes."""

import csv
import io

import pytest

# both signs across the decades the tables hold, signed zero and the
# smallest subnormal, whose shortest and 17-digit forms differ
EXTREME_FLOATS = (
    -0.0,
    5e-324,
    -5e-324,
    1e-12,
    -1e-12,
    1.0 / 3.0,
    -2.0 / 3.0,
    0.1,
    1e17,
    -123456789.123456789,
    1e300,
    -1e300,
)


@pytest.fixture
def extreme_floats():
    return EXTREME_FLOATS


@pytest.fixture
def csv_reference():
    """Text csv.writer gives for a header and rows, each float as f"{v:.17g}".

    Cells that are not floats (row counters, names) are written as they are.
    """

    def write(header, rows):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, float) else v for v in row]
            )
        return buf.getvalue()

    return write
