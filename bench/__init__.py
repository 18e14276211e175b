"""The repo's end-to-end benchmark (see bench/README.md and BENCHMARK.json)."""
