"""Self-training for small symbolic sequence policies in executable environments."""
