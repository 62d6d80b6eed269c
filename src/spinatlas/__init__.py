"""Connection graphs of exceptional spin structures and the groups their chains generate."""
