"""Finite-model lab: greedy log-size generic-witness sets over families of
finite structures, certified exhaustively at finite scale."""

# perfbench/tracer.py's install() runs `import hlab` and then reads these
# modules from sys.modules; nothing else needs this line.
from . import asymptotics, finitemodels, folang, haxioms, hgreedy, hsequence, lovelypair  # noqa: F401
