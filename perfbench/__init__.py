"""End-to-end and per-layer benchmark of the UML → C++ performance-model
toolchain (see README.md in this directory)."""
