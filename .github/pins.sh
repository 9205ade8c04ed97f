# Shell helpers for the console-script steps of .github/workflows/tests.yml; source it from the repository root.

# pin PREFIX: the sha256 pin in tests/test_cli.py whose hex digest starts with PREFIX
pin() { grep -o "\"$1[0-9a-f]\{56\}\"" tests/test_cli.py | tr -d '"'; }

# quiet COMMAND...: the command's own exit status, or 99 if it wrote anything to stderr
quiet() { local s=0; "$@" 2> "$RUNNER_TEMP/err" || s=$?; ! test -s "$RUNNER_TEMP/err" || { cat "$RUNNER_TEMP/err" >&2; return 99; }; return $s; }
