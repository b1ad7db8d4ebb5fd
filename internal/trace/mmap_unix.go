//go:build unix

package trace

import (
	"os"
	"syscall"
)

// mmapFile maps f read-only. Returns ok=false (caller falls back to
// reading the whole file) for empty files, oversized files, or mmap
// failure.
func mmapFile(f *os.File) ([]byte, bool) {
	fi, err := f.Stat()
	if err != nil || fi.Size() <= 0 || fi.Size() > int64(int(^uint(0)>>1)) {
		return nil, false
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()),
		syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false
	}
	return data, true
}

func munmapFile(data []byte) {
	syscall.Munmap(data)
}
