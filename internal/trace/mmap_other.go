//go:build !unix

package trace

import "os"

// Non-unix platforms always read the whole file into memory.
func mmapFile(f *os.File) ([]byte, bool) { return nil, false }

func munmapFile(data []byte) {}
