# Injected into the repository's own CMake project (via
# -DCMAKE_PROJECT_clpp_INCLUDE=<this file>) so the probe is compiled in the
# same build tree, with the same flags and libraries, as the clpp-serve it
# measures. The include is deferred to the end of the top-level
# CMakeLists, after every clpp_* target exists; EVAL expands this file's
# directory now, not when the deferred call runs.
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
