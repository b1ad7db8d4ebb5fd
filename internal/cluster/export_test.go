package cluster

// Hooks for the external cluster_test package.

// WithEpochs returns cfg with the stream built in n epochs.
func WithEpochs(cfg Config, n int) Config {
	cfg.epochs = n
	return cfg
}

// RequireResultsEqual is requireResultsEqual.
var RequireResultsEqual = requireResultsEqual
