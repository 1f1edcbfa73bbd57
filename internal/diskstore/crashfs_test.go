package diskstore

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// noSyncFS is the operating system with fsync elided: the injected failure
// models decide what survives, so the sweeps need not wait for the device.
type noSyncFS struct{}

func (noSyncFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := osFS{}.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

// ErrCrashed is returned by every mutating file operation after a CrashFS
// kill point fires. The store surfaces it like any other I/O error; the test
// then reopens the files to run recovery.
var ErrCrashed = errors.New("diskstore: injected crash")

// CrashFS wraps noSyncFS and simulates a process crash at the Nth mutating
// file operation (WriteAt, Truncate, or Sync): the fatal operation either
// does nothing or — in torn mode — applies only a prefix of the write, then
// fails with ErrCrashed, and every subsequent mutating operation fails too.
// Reads keep working so the dying process can still limp through error
// paths; the bytes written before the kill point persist in the underlying
// files, which is exactly the fail-stop state a real crash leaves behind.
//
// A kill point of 0 never fires; Ops() then counts the mutating operations
// of a clean run, which bounds the kill points worth enumerating.
//
// That is a process crash: the kernel still holds every completed write.
// PowerLoss additionally discards what no Sync had covered.
type CrashFS struct {
	inner FS

	mu        sync.Mutex
	remaining int
	armed     bool
	crashed   bool
	torn      bool
	ops       int64
	// files is what PowerLoss needs: per path, the file as of its last Sync
	// and every mutation since.
	files map[string]*fileImage
}

type fileImage struct {
	durable []byte
	pending []pendingOp
}

// pendingOp is an unsynced write of data at off, or (data nil) a truncate
// to off.
type pendingOp struct {
	off  int64
	data []byte
}

// newCrashFS returns a CrashFS that fails the killAfter-th mutating
// operation (1-based; 0 disables). In torn mode the fatal WriteAt persists
// only the first half of its bytes, modeling a write torn mid-sector by the
// crash.
func newCrashFS(killAfter int, torn bool) *CrashFS {
	return &CrashFS{inner: noSyncFS{}, remaining: killAfter, armed: killAfter > 0, torn: torn,
		files: make(map[string]*fileImage)}
}

// Ops reports the mutating operations observed so far.
func (c *CrashFS) Ops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Crashed reports whether the kill point has fired.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// beforeMutation accounts one mutating operation and decides its fate:
// proceed normally, tear (write a prefix then fail), or fail outright.
func (c *CrashFS) beforeMutation() (tear bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return false, ErrCrashed
	}
	c.ops++
	if !c.armed {
		return false, nil
	}
	c.remaining--
	if c.remaining > 0 {
		return false, nil
	}
	c.crashed = true
	return c.torn, ErrCrashed
}

// OpenFile implements FS.
func (c *CrashFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := c.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	img := c.files[path]
	if img == nil {
		// What a file holds when first opened is taken to be on the disk.
		img = &fileImage{}
		if img.durable, err = readAll(f); err != nil {
			f.Close()
			return nil, err
		}
		c.files[path] = img
	}
	return &crashFile{fs: c, f: f, img: img}, nil
}

// PowerLoss rewrites every file opened through c to what a power failure
// could leave on the disk: its contents as of its last successful Sync,
// plus each later write or truncate for which keep — given the file's path
// and the write offset or truncate size — reports true (nil keeps none):
// unsynced operations reach the disk in any subset. Call it after the store
// is closed or abandoned, then reopen with the real filesystem.
func (c *CrashFS) PowerLoss(keep func(path string, off int64) bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for path, f := range c.files {
		img := append([]byte(nil), f.durable...)
		for _, op := range f.pending {
			if keep == nil || !keep(path, op.off) {
				continue
			}
			end := op.off + int64(len(op.data)) // for a truncate, the new size
			if grow := end - int64(len(img)); grow > 0 {
				img = append(img, make([]byte, grow)...)
			}
			if op.data == nil {
				img = img[:end]
			}
			copy(img[op.off:], op.data)
		}
		if err := os.WriteFile(path, img, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func readAll(f File) ([]byte, error) {
	size, err := f.Size()
	if err != nil || size == 0 {
		return nil, err
	}
	b := make([]byte, size)
	_, err = f.ReadAt(b, 0)
	return b, err
}

type crashFile struct {
	fs  *CrashFS
	f   File
	img *fileImage
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }
func (f *crashFile) Size() (int64, error)                    { return f.f.Size() }
func (f *crashFile) Close() error                            { return f.f.Close() }

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	tear, err := f.fs.beforeMutation()
	if err == nil {
		f.img.pending = append(f.img.pending, pendingOp{off, append([]byte{}, p...)})
		return f.f.WriteAt(p, off)
	}
	if tear && len(p) > 1 {
		f.img.pending = append(f.img.pending, pendingOp{off, append([]byte{}, p[:len(p)/2]...)})
		if n, werr := f.f.WriteAt(p[:len(p)/2], off); werr != nil {
			return n, fmt.Errorf("%w (torn write also failed: %v)", err, werr)
		}
	}
	return 0, err
}

func (f *crashFile) Truncate(size int64) error {
	if _, err := f.fs.beforeMutation(); err != nil {
		return err
	}
	f.img.pending = append(f.img.pending, pendingOp{off: size})
	return f.f.Truncate(size)
}

func (f *crashFile) Sync() error {
	if _, err := f.fs.beforeMutation(); err != nil {
		return err
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	var err error
	f.img.durable, err = readAll(f.f)
	f.img.pending = f.img.pending[:0]
	return err
}
