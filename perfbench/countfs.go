package main

import (
	"io/fs"
	"strings"
	"sync/atomic"

	"r3d/internal/ckpt"
	"r3d/internal/iofault"
)

// countingFS is the benchmark's storage seam: an iofault.FS over the
// real filesystem that counts and times every write, sync, rename and
// read, and (when tracing) records each operation as a span under the
// span set as its parent. It feeds the ckpt.* metrics. It is safe for
// concurrent use; serve's persister calls it from its own goroutine.
type countingFS struct {
	inner  iofault.FS
	clock  func() int64 // injected: the model code calling through this seam must not reach the host clock
	tr     *tracer
	parent atomic.Int64 // span the next operations nest under

	writes, bytes, syncs, renames, commits, reads, readBytes atomic.Int64
	writeNs, syncNs, renameNs, openNs, readNs                atomic.Int64
}

func newCountingFS(clock func() int64, tr *tracer) *countingFS {
	return &countingFS{inner: iofault.OS(), clock: clock, tr: tr}
}

// fsCounts is a snapshot of the counters.
type fsCounts struct {
	Writes, Bytes, Syncs, Renames, Commits, Reads, ReadBytes int64
	// SaveNs is time in write-side calls (open/create, write, sync,
	// rename, remove, close); LoadNs time in reads; SyncNs the sync
	// share of SaveNs.
	SaveNs, LoadNs, SyncNs int64
}

func (c *countingFS) counts() fsCounts {
	return fsCounts{
		Writes: c.writes.Load(), Bytes: c.bytes.Load(), Syncs: c.syncs.Load(),
		Renames: c.renames.Load(), Commits: c.commits.Load(),
		Reads: c.reads.Load(), ReadBytes: c.readBytes.Load(),
		SaveNs: c.writeNs.Load() + c.syncNs.Load() + c.renameNs.Load() + c.openNs.Load(),
		LoadNs: c.readNs.Load(),
		SyncNs: c.syncNs.Load(),
	}
}

// sub returns the counts accumulated since an earlier snapshot.
func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		Writes: a.Writes - b.Writes, Bytes: a.Bytes - b.Bytes, Syncs: a.Syncs - b.Syncs,
		Renames: a.Renames - b.Renames, Commits: a.Commits - b.Commits,
		Reads: a.Reads - b.Reads, ReadBytes: a.ReadBytes - b.ReadBytes,
		SaveNs: a.SaveNs - b.SaveNs, LoadNs: a.LoadNs - b.LoadNs, SyncNs: a.SyncNs - b.SyncNs,
	}
}

// op times one operation into acc and records its span.
func (c *countingFS) op(name, path string, acc *atomic.Int64, f func() error) error {
	sp := c.tr.begin("ckpt."+name, path, c.parent.Load(), 0)
	t0 := c.clock()
	err := f()
	acc.Add(c.clock() - t0)
	c.tr.end(sp)
	return err
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	var f iofault.File
	err := c.op("open", name, &c.openNs, func() (err error) {
		f, err = c.inner.OpenFile(name, flag, perm)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	var f iofault.File
	err := c.op("create", dir, &c.openNs, func() (err error) {
		f, err = c.inner.CreateTemp(dir, pattern)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	var data []byte
	err := c.op("read", name, &c.readNs, func() (err error) {
		data, err = c.inner.ReadFile(name)
		return err
	})
	c.reads.Add(1)
	c.readBytes.Add(int64(len(data)))
	return data, err
}

// Rename counts every rename; one that installs a snapshot (rather than
// rotating the old one to its .prev slot) is a commit.
func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	if !strings.HasSuffix(newpath, ckpt.PrevPath("")) {
		c.commits.Add(1)
	}
	return c.op("rename", newpath, &c.renameNs, func() error { return c.inner.Rename(oldpath, newpath) })
}

func (c *countingFS) Remove(name string) error {
	return c.op("remove", name, &c.renameNs, func() error { return c.inner.Remove(name) })
}

func (c *countingFS) Stat(name string) (fs.FileInfo, error) {
	var fi fs.FileInfo
	err := c.op("stat", name, &c.readNs, func() (err error) {
		fi, err = c.inner.Stat(name)
		return err
	})
	return fi, err
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.op("syncdir", dir, &c.syncNs, func() error { return c.inner.SyncDir(dir) })
}

// countingFile counts the writes and syncs of one open file.
type countingFile struct {
	iofault.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	var n int
	err := f.fs.op("write", f.Name(), &f.fs.writeNs, func() (err error) {
		n, err = f.File.Write(p)
		return err
	})
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.fs.op("sync", f.Name(), &f.fs.syncNs, f.File.Sync)
}

func (f *countingFile) Close() error {
	return f.fs.op("close", f.Name(), &f.fs.openNs, f.File.Close)
}
