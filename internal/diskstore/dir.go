package diskstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"oblivjoin/internal/storage"
)

// Dir manages every store persisted under one data directory: it recovers
// all of them at open, provisions new ones through a storage.Opener, and
// threads the Close/Sync lifecycle through server shutdown. The directory
// holds one <escaped-name>.seg plus its .wal0/.wal1 logs per store; the
// segment header carries the authoritative (unescaped) name.
type Dir struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	stores map[string]*Store
	closed bool
}

// Open creates the directory if needed, then opens — and thereby runs
// recovery on — every store already persisted in it.
func Open(dir string, opts Options) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: create data dir: %w", err)
	}
	d := &Dir{dir: dir, opts: opts, stores: make(map[string]*Store)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: scan data dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segSuffix) {
			continue
		}
		base := strings.TrimSuffix(e.Name(), segSuffix)
		// Geometry and name come from the header (zero values = unchecked).
		st, err := OpenStore(filepath.Join(dir, base), "", 0, 0, opts)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("diskstore: recover %s: %w", e.Name(), err)
		}
		if _, dup := d.stores[st.Name()]; dup {
			st.Close()
			d.Close()
			return nil, fmt.Errorf("diskstore: two segment files named %q", st.Name())
		}
		d.stores[st.Name()] = st
	}
	return d, nil
}

// Path returns the managed directory.
func (d *Dir) Path() string { return d.dir }

// Names lists the managed stores in sorted order.
func (d *Dir) Names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.stores))
	for n := range d.stores {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the named store, or nil.
func (d *Dir) Get(name string) *Store {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stores[name]
}

// Open returns the named store, creating its files when absent. A store
// that already exists (recovered at Dir open or opened earlier) is reused
// if the requested geometry matches — the ORAM layer reinitializes its tree
// through the same interface either way — and rejected otherwise.
func (d *Dir) Open(name string, slots int64, blockSize int) (*Store, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if st, ok := d.stores[name]; ok {
		if st.Len() != slots || st.BlockSize() != blockSize {
			return nil, fmt.Errorf("diskstore: store %q exists with geometry %d×%d, want %d×%d",
				name, st.Len(), st.BlockSize(), slots, blockSize)
		}
		return st, nil
	}
	st, err := OpenStore(filepath.Join(d.dir, escapeName(name)), name, slots, blockSize, d.opts)
	if err != nil {
		return nil, err
	}
	d.stores[name] = st
	return st, nil
}

// Opener adapts the directory to the storage.Opener every layer above is
// parameterized over — plug it into remote.ServerOptions.OpenStore (or
// table.Options.OpenStore for an in-process persistent run).
func (d *Dir) Opener() storage.Opener {
	return func(name string, slots int64, blockSize int) (storage.Store, error) {
		return d.Open(name, slots, blockSize)
	}
}

// Stats snapshots every store's durability counters plus their total.
func (d *Dir) Stats() (names []string, perStore map[string]Stats, total Stats) {
	d.mu.Lock()
	stores := make(map[string]*Store, len(d.stores))
	for n, st := range d.stores {
		stores[n] = st
	}
	d.mu.Unlock()
	perStore = make(map[string]Stats, len(stores))
	for n, st := range stores {
		s := st.Stats()
		perStore[n] = s
		total = total.Add(s)
		names = append(names, n)
	}
	sort.Strings(names)
	return names, perStore, total
}

// Sync checkpoints every store still open (stores a server shutdown
// already closed were checkpointed by their Close).
func (d *Dir) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, st := range d.stores {
		if err := st.Sync(); err != nil && !errors.Is(err, ErrClosed) && first == nil {
			first = err
		}
	}
	return first
}

// Close checkpoints and closes every store. Idempotent, and tolerant of
// stores already closed by the server's own shutdown.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	for _, st := range d.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// escapeName maps an arbitrary store name to a filesystem-safe base name:
// alphanumerics, dot, dash, and underscore pass through, everything else
// (including the escape character itself) becomes %XX. The mapping is
// injective, so distinct store names never collide on disk.
func escapeName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}
