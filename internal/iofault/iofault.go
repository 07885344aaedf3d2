// Package iofault is the repo's storage-fault boundary: every durable
// write in the tree (checkpoints, campaign journals, the daemon job
// store and window caches) goes through its FS interface, so the exact
// same code path that runs against the real filesystem in production
// can run against a deterministic, seeded fault lattice under test.
//
// The package mirrors the paper's fault taxonomy at the storage/OS
// layer. The 2D/3D fault-tolerance literature distinguishes transient,
// intermittent and permanent faults; here that maps onto:
//
//   - transient: a write or rename that fails once and would succeed if
//     retried (injected write errors, ENOSPC, rename failures) — the
//     retry/backoff layer above must absorb these;
//   - intermittent: short writes and dropped syncs — the operation
//     "succeeds" but leaves less durable state than the caller believes,
//     which only a later crash exposes;
//   - permanent: a device that has failed for good (the crashed state of
//     FaultFS, or a scheduled fail-forever point) — retrying is
//     pointless and the caller must degrade instead.
//
// Three implementations:
//
//   - OS() — the passthrough production filesystem;
//   - NewMemFS() — an in-memory filesystem with honest crash semantics
//     (volatile vs durable views, fsync and directory-sync tracked
//     separately, Crash() discards everything not durable);
//   - NewFaultFS() — a wrapper over any FS that injects faults from a
//     seeded, byte-reproducible schedule and logs every injection.
package iofault

import (
	"fmt"
	"io/fs"
	"os"
)

// File is the writable-file surface the durable layers need: the method
// set is a subset of *os.File, which satisfies it directly.
type File interface {
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem surface the durable layers need. All paths are
// host paths (the MemFS namespace is flat but path-shaped, so the same
// paths work against every implementation).
type FS interface {
	// OpenFile opens name with os-style flags (os.O_WRONLY,
	// os.O_CREATE, os.O_TRUNC, os.O_RDWR ...).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new file in dir from pattern (one '*' is
	// replaced with a unique suffix), like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile returns the full content of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Stat reports whether name exists. No durable layer calls it any
	// more; the benchmark's storage seam (perfbench) wraps it with the
	// rest of the interface.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir makes dir's directory entries (creates, renames, removes)
	// durable, the way fsyncing an opened directory does.
	SyncDir(dir string) error
}

// Class is the retryability of an injected (or classified) failure.
type Class int

const (
	// ClassTransient faults may succeed if retried: the fault model is
	// a one-shot upset, not a dead device.
	ClassTransient Class = iota
	// ClassPermanent faults repeat on every retry; callers must surface
	// or degrade.
	ClassPermanent
)

func (c Class) String() string {
	if c == ClassTransient {
		return "transient"
	}
	return "permanent"
}

// Kind names one storage-fault species in the injection lattice.
type Kind string

const (
	// KindWriteErr is a transient write failure with no bytes written.
	KindWriteErr Kind = "write-error"
	// KindShortWrite writes a prefix of the payload, then fails
	// transiently — the torn-record generator.
	KindShortWrite Kind = "short-write"
	// KindENOSPC is a transient out-of-space failure (space can free).
	KindENOSPC Kind = "enospc"
	// KindRenameErr is a transient rename failure.
	KindRenameErr Kind = "rename-error"
	// KindSyncDrop silently drops an fsync: the call returns nil but
	// nothing becomes durable, so a later crash loses the writes.
	KindSyncDrop Kind = "sync-drop"
	// KindBitFlip corrupts one bit of the written payload; the write
	// itself reports success.
	KindBitFlip Kind = "bit-flip"
	// KindSlowIO injects latency (accounted deterministically; actually
	// slept only when the FaultFS has a sleeper wired).
	KindSlowIO Kind = "slow-io"
	// KindCrash marks the scheduled crash point: the op and everything
	// after it fail permanently until the harness recovers the FS.
	KindCrash Kind = "crash"
)

// Error is an injected storage fault. It carries its own retryability
// class so the backoff layer's taxonomy needs no fault-kind table.
type Error struct {
	Op    string // "write", "sync", "rename", ...
	Path  string
	Kind  Kind
	Seq   int64 // global op sequence number at injection
	Class Class
	// Errno, when non-nil, is the OS-level error this fault simulates
	// (e.g. syscall.ENOSPC); errors.Is sees through it.
	Errno error
}

func (e *Error) Error() string {
	return fmt.Sprintf("iofault: injected %s %s on %s %s (op %d)", e.Class, e.Kind, e.Op, e.Path, e.Seq)
}

// Unwrap exposes the simulated OS error to errors.Is/As.
func (e *Error) Unwrap() error { return e.Errno }

// Transient reports the fault's retryability; internal/backoff keys its
// classification off this interface.
func (e *Error) Transient() bool { return e.Class == ClassTransient }

// osFS is the production passthrough.
type osFS struct{}

// OS returns the real filesystem. It is what every durable layer uses
// when no FS is injected.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Stat(name string) (fs.FileInfo, error) {
	return os.Stat(name)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // the sync failure is the error worth reporting
		return err
	}
	return d.Close()
}
