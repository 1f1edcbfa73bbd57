package diskstore

import "os"

// FS abstracts the handful of file operations the store performs. The
// default implementation is the operating system; the package's tests
// substitute one that kills the store at an exact operation boundary and
// then reopen the surviving bytes, exercising recovery precisely as a crash
// would.
type FS interface {
	// OpenFile opens or creates the file at path with os.OpenFile semantics.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
}

// File is the positioned-I/O view of one open file. The store never uses a
// seek pointer: every read and write carries an absolute offset, so the
// interface (and a crash at any point inside it) is stateless.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	// Truncate sets the file size, extending sparsely with zeros.
	Truncate(size int64) error
	// Sync flushes written data to stable storage (fsync).
	Sync() error
	Close() error
	// Size returns the current file length in bytes.
	Size() (int64, error)
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
