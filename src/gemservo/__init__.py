"""gemservo: servo-loop modeling, identification, control design and
simulation for a German-equatorial telescope mount.

The package covers the full engineering pipeline: continuous LTI plant
models and their exact sampled-time simulation (:mod:`gemservo.lti`),
black-box second-order identification from logged drive data
(:mod:`gemservo.sysid`), discrete PID and state-feedback-with-integral
controllers with anti-windup, pole placement and a deterministic tuner
(:mod:`gemservo.controllers`), saturated closed-loop simulation and batch
study suites (:mod:`gemservo.simloop`), step/disturbance metrics against
named requirements (:mod:`gemservo.metrics`), mount kinematics and
workspace computation (:mod:`gemservo.kinematics`), and JSON config plumbing
(:mod:`gemservo.config`). The ``gemservo`` console command exposes the
pipeline end to end.
"""

from . import controllers, kinematics, lti, metrics, simloop, sysid
from .lti import *
from .sysid import *
from .controllers import *
from .simloop import *
from .metrics import *
from .kinematics import *

__version__ = "0.1.0"

# Each module's __all__ is its list of public names. A name two lists share
# is one object, re-exported where a caller looks it up, and is listed once.
__all__ = list(dict.fromkeys([
    "__version__",
    *lti.__all__,
    *sysid.__all__,
    *controllers.__all__,
    *simloop.__all__,
    *metrics.__all__,
    *kinematics.__all__,
]))
