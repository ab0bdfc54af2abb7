"""Access to the packaged reference diagrams.  A figure's diagram is
grown from the chain the file prints along its printed path; the printed
rows (rows 1..7, row t spanning (t, t)..(t, t+r)) are kept as the oracle
that the checks compare every grown entry with."""

import json
from importlib import resources

from growth.partitions import Frame, normalize
from growth.cylgrowth import CylGrowthDiagram, cgd_from_path


def load_golden(name: str) -> dict:
    """Load a packaged reference file: 'growth_example' or 'wall_example'."""
    text = resources.files("growth.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def golden_diagram(name: str) -> CylGrowthDiagram:
    """The reference diagram as a value: the unique diagram taking the
    file's printed chain along its printed path."""
    data = load_golden(name)
    frame = Frame(data["frame"]["d"], data["frame"]["n"])
    return cgd_from_path(data["path"], data["chain"], frame)


def golden_figure_entries(name: str):
    """Iterate (i, j, partition) over every entry printed in the figure,
    in the figure's own coordinates."""
    data = load_golden(name)
    start = data["figure_start_row"]
    for offset, row in enumerate(data["figure_rows"]):
        i = start + offset
        for k, p in enumerate(row):
            yield i, i + k, normalize(p)
