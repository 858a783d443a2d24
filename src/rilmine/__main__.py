"""``python3 -m rilmine``: the ``rilmine`` command line."""

import sys

from rilmine.cli import main

sys.exit(main())
