"""Verdicts and deadlock witnesses shared by all checking engines."""
from .record import Frozen


class Verdict:
    pass


class DeadlockFree(Frozen, Verdict):
    def __bool__(self):
        return True


class Deadlock(Frozen, Verdict):
    _fields = ("witness",)

    def __init__(self, witness):
        self.__dict__.update(witness=witness)

    def __bool__(self):
        return False


DEADLOCK_FREE = DeadlockFree()


class WaitCycle(Frozen):
    """Blocked fronts of a stuck event model, each waiting for the next
    one's node, the last for the first's."""

    _fields = ("fronts",)  # ((node, symbol, k), ...): k earlier instances

    def __init__(self, fronts):
        self.__dict__.update(fronts=fronts)

    def to_dict(self):
        return {
            "type": "wait-cycle",
            "fronts": [f"{n}: {s}#{k}" for n, s, k in self.fronts],
        }


class UnmatchedTotals(Frozen):
    _fields = ("symbol", "sends", "recvs")

    def __init__(self, symbol, sends, recvs):
        self.__dict__.update(symbol=symbol, sends=sends, recvs=recvs)

    def to_dict(self):
        return {
            "type": "unmatched-totals",
            "symbol": str(self.symbol),
            "sends": self.sends,
            "recvs": self.recvs,
        }


class RatioInconsistency(Frozen):
    _fields = ("detail", "equations")

    def __init__(self, detail, equations=()):
        self.__dict__.update(detail=detail, equations=equations)

    def to_dict(self):
        return {
            "type": "ratio-inconsistency",
            "detail": self.detail,
            "equations": [str(e) for e in self.equations],
        }


class FppStuck(Frozen):
    """First-power pool with no reducible or expansible related set left."""

    _fields = ("pool",)  # ((node, rendered power), ...)

    def __init__(self, pool):
        self.__dict__.update(pool=pool)

    def to_dict(self):
        return {
            "type": "fpp-stuck",
            "pool": {str(n): p for n, p in self.pool},
        }


def witness_dict(verdict: Verdict):
    if isinstance(verdict, Deadlock):
        return verdict.witness.to_dict()
    return None
