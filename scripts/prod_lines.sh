#!/bin/sh
# Lines of the production libraries: every src/**/*.cpp and src/**/*.hpp
# outside src/testing/ (test-side references and oracles) and src/tools/
# (the CLI). ROADMAP's production-library line counts are this figure.
#
#   scripts/prod_lines.sh          # the working tree
#   scripts/prod_lines.sh <rev>    # a git revision, e.g. HEAD~1
set -eu

cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
  find src \( -path src/testing -o -path src/tools \) -prune -o \
    -type f \( -name '*.cpp' -o -name '*.hpp' \) -print | xargs cat | wc -l
else
  git ls-tree -r --name-only "$1" -- src |
    grep -E '\.(cpp|hpp)$' | grep -Ev '^src/(testing|tools)/' |
    while read -r file; do git show "$1:$file"; done | wc -l
fi
