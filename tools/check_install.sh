#!/usr/bin/env bash
# Installs a built tree into a temporary prefix and checks the package it
# ships: the exported fairkm-targets.cmake must define fairkm::<name>, and
# the prefix must hold libfairkm_<name>.a, for every layer src/CMakeLists.txt
# declares with fairkm_add_layer(<name> ...).
#
#   tools/check_install.sh <build_dir> <prefix>

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${1:?usage: tools/check_install.sh <build_dir> <prefix>}
PREFIX=${2:?usage: tools/check_install.sh <build_dir> <prefix>}

rm -rf "$PREFIX"
cmake --install "$BUILD_DIR" --prefix "$PREFIX" > /dev/null
TARGETS=$(find "$PREFIX" -name fairkm-targets.cmake | head -n 1)
if [[ -z "$TARGETS" ]]; then
  echo "check_install: no fairkm-targets.cmake under $PREFIX" >&2
  exit 1
fi

LAYERS=$(sed -n 's/^fairkm_add_layer(\([a-z_]*\).*/\1/p' src/CMakeLists.txt)
missing=0
for layer in $LAYERS; do
  if ! grep -q "add_library(fairkm::${layer} " "$TARGETS"; then
    echo "check_install: $TARGETS does not define fairkm::${layer}" >&2
    missing=1
  fi
  if [[ -z "$(find "$PREFIX" -name "libfairkm_${layer}.a")" ]]; then
    echo "check_install: libfairkm_${layer}.a not installed" >&2
    missing=1
  fi
done
if [[ "$missing" != 0 ]]; then exit 1; fi
echo "check_install: $(echo "$LAYERS" | wc -w) layers exported and installed"
