"""Experiment files pinned byte for byte.

The expected bytes below were written by the exporters on two small grids
and are kept literally, so any change to a column, a cell format, the row
order, the JSON layout or the line endings fails here, not only a change
between two runs of one build.
"""

import os

from smoothlab.experiments import (
    ExperimentConfig,
    export_plot_data,
    export_results,
    export_unsmoothing,
    run_coset,
    run_equidistribution,
    run_unsmoothing,
)

GRID = ExperimentConfig(
    xs=(100.0, 1000.0), ys=(5.0, 10.0), qs=(3, 4), epsilons=(0.0, 0.1, 0.5, 1.0)
)
COSETS = ExperimentConfig(xs=(1000.0,), ys=(10.0,), qs=(7,))

EQUIDISTRIBUTION_CSV = """\
x,y,q,a,count,expected,discrepancy,u,v,w,alpha
100,5,3,1,8,7.5,0.0666666666667,2.86135311615,4.19180654858,4.19180654858,0.48917798822
100,5,3,2,7,7.5,0.0666666666667,2.86135311615,4.19180654858,4.19180654858,0.48917798822
100,5,4,1,6,5,0.2,2.86135311615,3.32192809489,3.32192809489,0.48917798822
100,5,4,3,4,5,0.2,2.86135311615,3.32192809489,3.32192809489,0.48917798822
100,10,3,1,12,11.5,0.0434782608696,2,4.19180654858,4.19180654858,0.580141773417
100,10,3,2,11,11.5,0.0434782608696,2,4.19180654858,4.19180654858,0.580141773417
100,10,4,1,8,7.5,0.0666666666667,2,3.32192809489,3.32192809489,0.580141773417
100,10,4,3,7,7.5,0.0666666666667,2,3.32192809489,3.32192809489,0.580141773417
1000,5,3,1,15,14.5,0.0344827586207,4.29202967422,6.28770982287,5,0.353656948301
1000,5,3,2,14,14.5,0.0344827586207,4.29202967422,6.28770982287,5,0.353656948301
1000,5,4,1,11,9.5,0.157894736842,4.29202967422,4.98289214233,4.98289214233,0.353656948301
1000,5,4,3,8,9.5,0.157894736842,4.29202967422,4.98289214233,4.98289214233,0.353656948301
1000,10,3,1,28,28,0,3,6.28770982287,6.28770982287,0.430358314988
1000,10,3,2,28,28,0,3,6.28770982287,6.28770982287,0.430358314988
1000,10,4,1,19,18.5,0.027027027027,3,4.98289214233,4.98289214233,0.430358314988
1000,10,4,3,18,18.5,0.027027027027,3,4.98289214233,4.98289214233,0.430358314988
"""

COSET_CSV = """\
x,y,q,a,count,expected,discrepancy,u,v,w,alpha
1000,10,7,1H:1/2,2,14.3333333333,0.139534883721,3,3.54988398736,3.54988398736,0.430358314988
1000,10,7,1H:1/4,2,14.3333333333,0.139534883721,3,3.54988398736,3.54988398736,0.430358314988
1000,10,7,1H:2/4,0,14.3333333333,0,3,3.54988398736,3.54988398736,0.430358314988
1000,10,7,3H:3/5,0,14.3333333333,0,3,3.54988398736,3.54988398736,0.430358314988
1000,10,7,3H:3/6,0,14.3333333333,0,3,3.54988398736,3.54988398736,0.430358314988
1000,10,7,3H:5/6,0,14.3333333333,0,3,3.54988398736,3.54988398736,0.430358314988
"""

MIXED_JSON = """\
[
  {
    "a": 1,
    "alpha": 0.4891779882196258,
    "count": 8,
    "discrepancy": 0.06666666666666665,
    "expected": 7.5,
    "q": 3,
    "u": 2.8613531161467867,
    "v": 4.19180654857877,
    "w": 4.19180654857877,
    "x": 100.0,
    "y": 5.0
  },
  {
    "a": 2,
    "alpha": 0.4891779882196258,
    "count": 7,
    "discrepancy": 0.06666666666666665,
    "expected": 7.5,
    "q": 3,
    "u": 2.8613531161467867,
    "v": 4.19180654857877,
    "w": 4.19180654857877,
    "x": 100.0,
    "y": 5.0
  },
  {
    "a": "1H:1/2",
    "alpha": 0.4303583149875704,
    "count": 2,
    "discrepancy": 0.13953488372093023,
    "expected": 14.333333333333334,
    "q": 7,
    "u": 2.9999999999999996,
    "v": 3.549883987364815,
    "w": 3.549883987364815,
    "x": 1000.0,
    "y": 10.0
  },
  {
    "a": "1H:1/4",
    "alpha": 0.4303583149875704,
    "count": 2,
    "discrepancy": 0.13953488372093023,
    "expected": 14.333333333333334,
    "q": 7,
    "u": 2.9999999999999996,
    "v": 3.549883987364815,
    "w": 3.549883987364815,
    "x": 1000.0,
    "y": 10.0
  }
]
"""

UNSMOOTHING_CSV = """\
x,y,q,epsilon,ratio
100,5,3,0,0
100,5,3,0.1,0.0666666666667
100,5,3,0.5,0.2
100,5,3,1,1
100,5,4,0,0
100,5,4,0.1,0
100,5,4,0.5,0.2
100,5,4,1,1
100,10,3,0,0
100,10,3,0.1,0.0869565217391
100,10,3,0.5,0.260869565217
100,10,3,1,1
100,10,4,0,0
100,10,4,0.1,0
100,10,4,0.5,0.2
100,10,4,1,1
1000,5,3,0,0
1000,5,3,0.1,0.0344827586207
1000,5,3,0.5,0.172413793103
1000,5,3,1,1
1000,5,4,0,0
1000,5,4,0.1,0
1000,5,4,0.5,0.157894736842
1000,5,4,1,1
1000,10,3,0,0
1000,10,3,0.1,0.0357142857143
1000,10,3,0.5,0.214285714286
1000,10,3,1,1
1000,10,4,0,0
1000,10,4,0.1,0.027027027027
1000,10,4,0.5,0.216216216216
1000,10,4,1,1
"""

PLOT_CSV = """\
v,max_discrepancy
3.32192809489,0.0666666666667
3.32192809489,0.2
4.19180654858,0.0434782608696
4.19180654858,0.0666666666667
4.98289214233,0.027027027027
4.98289214233,0.157894736842
6.28770982287,0
6.28770982287,0.0344827586207
"""


def _csv_bytes(text: str) -> bytes:
    # the csv module ends every row with \r\n
    return text.replace("\n", "\r\n").encode()


def _text_bytes(text: str) -> bytes:
    # the JSON file is written in text mode, so \n becomes the platform separator
    return text.replace("\n", os.linesep).encode()


def test_equidistribution_csv(tmp_path):
    path = tmp_path / "eq.csv"
    export_results(run_equidistribution(GRID), "csv", path)
    assert path.read_bytes() == _csv_bytes(EQUIDISTRIBUTION_CSV)


def test_coset_csv(tmp_path):
    path = tmp_path / "coset.csv"
    export_results(run_coset(COSETS), "csv", path)
    assert path.read_bytes() == _csv_bytes(COSET_CSV)


def test_json_with_integer_and_label_residues(tmp_path):
    path = tmp_path / "mixed.json"
    records = run_coset(COSETS)[:2] + run_equidistribution(GRID)[:2]
    export_results(records, "json", path)
    assert path.read_bytes() == _text_bytes(MIXED_JSON)


def test_unsmoothing_csv(tmp_path):
    path = tmp_path / "unsmoothing.csv"
    export_unsmoothing(run_unsmoothing(GRID), path)
    assert path.read_bytes() == _csv_bytes(UNSMOOTHING_CSV)


def test_plot_data_csv(tmp_path):
    path = tmp_path / "plot.csv"
    export_plot_data(run_equidistribution(GRID), path)
    assert path.read_bytes() == _csv_bytes(PLOT_CSV)
