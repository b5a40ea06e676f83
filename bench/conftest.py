"""Makes ``repro`` (this checkout's) importable for ``pytest bench/``."""

import bootstrap

bootstrap.prepare()
