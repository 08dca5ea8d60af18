"""Fail when the JUnit report ``junit.xml`` in the working directory records
a skipped test: a skipped test checks nothing.

Usage: python .github/scripts/no_skipped_tests.py
"""

import sys
import xml.etree.ElementTree as ET

root = ET.parse("junit.xml").getroot()
suites = [root] if root.tag == "testsuite" else root.findall("testsuite")
skipped = sum(int(s.get("skipped", "0")) for s in suites)
if skipped:
    sys.exit(f"{skipped} test(s) skipped")
