import sys

# On a failing property test, hypothesis's pytest plugin imports
# hypothesis.extra._patching to offer an @example patch. That module imports
# libcst, whose DeprecationWarning is an error under -W error, and the
# failure then ends in a pytest INTERNALERROR that hides which test failed.
# A None entry makes the import fail, and the plugin then writes no patch;
# the report still names the test and its falsifying example.
sys.modules["hypothesis.extra._patching"] = None
