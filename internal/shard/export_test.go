package shard

// Hooks for the external shard_test package.

// NeverFold keeps x's delta outstanding until Compact.
func NeverFold(x *Index) { x.delta = neverFold }

// PathBatches is pathBatches, exported.
var PathBatches = pathBatches
