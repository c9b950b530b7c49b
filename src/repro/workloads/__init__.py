"""Workload generators standing in for the paper's benchmark suites."""

from .base import Workload, jittered, ms_of_work, us_of_work
from .configure import CONFIGURE_PROFILES, ConfigureWorkload, configure_names
from .dacapo import (DACAPO_PROFILES, DacapoWorkload, HIGH_UNDERLOAD_APPS,
                     dacapo_names)
from .messaging import HackbenchWorkload, SchbenchWorkload
from .multiapp import MultiAppWorkload
from .nas import NAS_PROFILES, NasWorkload, nas_names
from .phoronix import (FIG13_PROFILES, PhoronixProfile, PhoronixWorkload,
                       fig13_names, suite_population)
from .servers import (KeyValueStoreWorkload, ServerWorkload, apache_siege,
                      leveldb, nginx, redis)

__all__ = [
    "Workload", "jittered", "ms_of_work", "us_of_work",
    "ConfigureWorkload", "CONFIGURE_PROFILES", "configure_names",
    "DacapoWorkload", "DACAPO_PROFILES", "HIGH_UNDERLOAD_APPS", "dacapo_names",
    "HackbenchWorkload", "SchbenchWorkload",
    "MultiAppWorkload",
    "NasWorkload", "NAS_PROFILES", "nas_names",
    "PhoronixWorkload", "PhoronixProfile", "FIG13_PROFILES", "fig13_names",
    "suite_population",
    "ServerWorkload", "KeyValueStoreWorkload", "apache_siege", "nginx",
    "leveldb", "redis",
]
