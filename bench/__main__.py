import sys

from bench.launch import main

sys.exit(main())
