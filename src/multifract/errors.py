"""Exception hierarchy shared across the package."""


class MultifractError(Exception):
    """Base class for all package-specific errors."""


class DataError(MultifractError):
    """A fault in the input data; the CLI exits 3."""


# --- ingest ---

class MalformedRow(DataError):
    def __init__(self, line_number, message="cannot parse row"):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class NonPositivePrice(DataError):
    def __init__(self, line_number):
        self.line_number = line_number
        super().__init__(f"line {line_number}: price must be strictly positive")


class NonMonotoneDates(DataError):
    def __init__(self, line_number):
        self.line_number = line_number
        super().__init__(f"line {line_number}: dates must be strictly increasing")


class SeriesTooShort(DataError):
    pass


class DegenerateSeries(DataError):
    pass


# --- mfdfa ---

class ScaleTooLarge(SeriesTooShort):
    pass


class Underdetermined(MultifractError):
    pass


class AllBoxesDegenerate(MultifractError):
    def __init__(self, q=None, s=None):
        self.q = q
        self.s = s
        tag = "" if q is None else f" at (q={q}, s={s})"
        super().__init__(f"every box excluded by the degeneracy floor{tag}")


class InsufficientScales(MultifractError):
    def __init__(self, q):
        self.q = q
        super().__init__(f"fewer than 3 valid scales for q={q}")


class GridTooSmall(MultifractError):
    pass


# --- surrogate ---

class ConstantSeries(MultifractError):
    pass


class LengthTooShort(MultifractError):
    pass


# --- mftest ---

class GridMismatch(MultifractError):
    pass


class RankDeficient(MultifractError):
    pass


# --- synth ---

class EmbeddingFailure(MultifractError):
    pass
