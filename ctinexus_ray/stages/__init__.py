"""Ray Data stages: stateless map_batches tasks + stateful stage classes."""
