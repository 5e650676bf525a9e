"""Line-delimited metric records and CSV curve output.

One record per line as space-separated ``key=value`` pairs with a fixed
field order: run, phase, epoch/step, then metric names in sorted order.
A record holds no wall-clock time, so fixed-seed reruns produce
byte-identical streams.
"""

from __future__ import annotations


def format_record(phase: str, epoch: int, metrics: dict[str, float]) -> str:
    parts = ["run=run", f"phase={phase}", f"epoch={epoch}"]
    parts += [f"{key}={metrics[key]!r}" for key in sorted(metrics)]
    return " ".join(parts)


class MetricsWriter:
    """Append-only metric stream bound to one file."""

    def __init__(self, path: str):
        self.path = path
        with open(path, "w"):
            pass

    def write(self, phase: str, epoch: int, metrics: dict[str, float]) -> str:
        line = format_record(phase, epoch, metrics)
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
        return line


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
