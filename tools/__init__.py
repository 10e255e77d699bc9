"""Repository tooling: API reference generation and the repro-lint analyzer."""
