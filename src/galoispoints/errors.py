"""Exception types raised by the toolkit.

Every error the library raises deliberately derives from
:class:`GaloisPointError`, so callers (in particular the CLI) can separate
expected, structured failures from genuine bugs.
"""


class GaloisPointError(Exception):
    """Base class for all library errors."""


# -- field construction / arithmetic ---------------------------------------

class NonPrimeCharacteristic(GaloisPointError):
    """The requested characteristic is not a prime number."""


class IrreducibleSearchExhausted(GaloisPointError):
    """No irreducible modulus was found within the attempt budget."""


class IncompatibleFields(GaloisPointError):
    """Two field contexts cannot interoperate (wrong p or degree)."""


class PDividesN(GaloisPointError):
    """A root of unity of order divisible by the characteristic was requested."""


# -- polynomial layer --------------------------------------------------------

class ZeroInput(GaloisPointError):
    """An operation that requires nonzero input received zero."""


class ExtensionCapExceeded(GaloisPointError):
    """A splitting field would need a larger extension than the cap allows."""


class NotSquarefree(GaloisPointError):
    """A defining polynomial has a repeated factor."""


# -- projective layer --------------------------------------------------------

class DimensionMismatch(GaloisPointError):
    """Mixed P^1/P^2 objects, or coordinate lengths disagree."""


class ClosureCapExceeded(GaloisPointError):
    """Group closure exceeded the configured cap (group too large or infinite)."""


# -- curve layer ---------------------------------------------------------------

class LineIsComponent(GaloisPointError):
    """The line is a component of the curve; no intersection divisor exists."""


class PointNotOnCurve(GaloisPointError):
    """The point does not lie on the curve."""


class PointSingular(GaloisPointError):
    """The point is a singular point of the curve."""


# -- certification engine ------------------------------------------------------

class CenterSingular(GaloisPointError):
    """A projection center lies in the singular locus of the curve."""


class AllSpecializationsRamified(GaloisPointError):
    """Every sampled specialization of a fiber polynomial was degenerate."""


class ExactModeDegenerate(GaloisPointError):
    """A collineation group needs roots past the extension-degree cap."""


class DegenerateFibers(GaloisPointError):
    """No squarefree full-degree fiber was found within the attempt budget."""


class MissingParametrization(GaloisPointError):
    """Deck certification was requested without a parametrization."""


class ParametrizationInvalid(GaloisPointError):
    """A supplied parametrization does not lie on the curve or is degenerate."""


class SoundnessError(GaloisPointError):
    """A verdict or group failed a soundness invariant (raised even under -O)."""


# -- embedding pipeline ----------------------------------------------------------

class LadderExhausted(GaloisPointError):
    """No invariant generator of full degree was found."""


class ConditionBFails(GaloisPointError):
    """The divisor condition has no witness; the embedding cannot be built."""


class VerificationFailed(GaloisPointError):
    """A constructed object failed its own certification stage."""


class DegreeMismatch(GaloisPointError):
    """An implicitized curve has unexpected degree."""


# -- families -----------------------------------------------------------------

class NotSubgroup(GaloisPointError):
    """The given set is not an additive subgroup."""


class ScalingUnstable(GaloisPointError):
    """The additive subgroup is not stable under the required scaling."""


class FieldTooSmall(GaloisPointError):
    """The requested field cannot host the family (missing roots of unity)."""


class DegenerateOnly(GaloisPointError):
    """Only the degenerate branch solution exists in this characteristic."""


# -- CLI ------------------------------------------------------------------------

class InputError(GaloisPointError):
    """Malformed input, such as a reducible curve (maps to exit code 1)."""
