"""Fixed reference process: the yardstick of the host's speed at one moment.

``run.py`` starts this script right after each timed ``specrcv`` command and
scales the command's wall time by ``REFERENCE_S`` / (this process's wall
time). It does a little of each kind of work the CLI does: start an
interpreter and import NumPy, format and parse float text, run a loop of
small array operations, a pure-Python loop and one small eigensolve. It
does not import ``specrcv``, so no change to the program changes its cost.
"""
import numpy as np

rng = np.random.default_rng(12345)
values = rng.standard_normal(40_000)
text = "".join(f"{v!r}\n" for v in values.tolist())
parsed = np.array([float(t) for t in text.split()])
a = np.ones(64)
for _ in range(8_000):
    a = a * 1.0000001 + 1e-9
x = 0.0
for i in range(150_000):
    x += i * 0.5
m = rng.standard_normal((300, 300))
np.linalg.eigvalsh(m @ m.T)
