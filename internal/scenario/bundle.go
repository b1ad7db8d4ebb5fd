package scenario

import (
	"os"

	"repro/internal/serve"
	"repro/internal/trace"
)

// bundleFactory streams a captured incident bundle (internal/serve's
// versioned format: JSON header + dataset-codec invocation rows) as a
// trace source, so a recorded serving incident drops into any
// scenario or sweep exactly like a dataset CSV:
//
//	source=bundle:incidents/stampede.bundle; policy=[fixed?ka=10m,hybrid]
type bundleFactory struct {
	path string
}

func (f *bundleFactory) Spec() string { return "bundle:" + f.path }

func (f *bundleFactory) Open() (trace.Source, func() error, error) {
	file, err := os.Open(f.path)
	if err != nil {
		return nil, nil, err
	}
	_, src, err := serve.StreamBundle(file)
	if err != nil {
		file.Close()
		return nil, nil, err
	}
	return src, file.Close, nil
}
