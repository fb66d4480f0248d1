package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// store is the crash-safe on-disk layout under one data directory:
//
//	jobs/<id>/manifest.json   durable job record (atomic tmp+rename)
//	jobs/<id>/cells.jsonl     per-cell checkpoint journal (internal/checkpoint)
//	traces/<digest>.trace     uploaded trace files, content-addressed
//
// Every write is either atomic and durable (manifests and traces: write
// tmp, fsync, rename, fsync the directory) or append-only with torn-tail
// recovery (journals), so a crash at any instant — power loss included —
// leaves a directory the next server start can load.
type store struct {
	dir string
}

func newStore(dir string) (*store, error) {
	for _, d := range []string{filepath.Join(dir, "jobs"), filepath.Join(dir, "traces")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: data dir: %w", err)
		}
	}
	return &store{dir: dir}, nil
}

func (st *store) jobDir(id string) string      { return filepath.Join(st.dir, "jobs", id) }
func (st *store) journalPath(id string) string { return filepath.Join(st.jobDir(id), "cells.jsonl") }

// writeManifest persists m atomically and durably: a torn write can only
// ever lose the update, never corrupt the previous manifest, and once it
// returns the manifest — an acknowledged admission included — survives
// power loss.
func (st *store) writeManifest(m Manifest) error {
	dir := st.jobDir(m.ID)
	created := true
	if err := os.Mkdir(dir, 0o755); errors.Is(err, fs.ErrExist) {
		created = false
	} else if err != nil {
		return err
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := writeDurable(filepath.Join(dir, "manifest.json"), append(data, '\n')); err != nil {
		return err
	}
	if created {
		return syncDir(filepath.Dir(dir)) // the job directory's own entry
	}
	return nil
}

// writeDurable replaces path with data atomically and durably: the bytes
// go to a temp file in the same directory, fsynced before the rename,
// and the directory is fsynced after it, so after a crash path holds
// either its previous contents or all of data.
func writeDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making its entries' creations and renames
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadManifests scans jobs/ and returns every readable manifest in
// admission (Seq) order. Unreadable entries — a directory whose
// manifest write was the torn operation — are skipped: the job never
// acknowledged admission, so dropping it is correct.
func (st *store) loadManifests() ([]Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var ms []Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.jobDir(e.Name()), "manifest.json"))
		if err != nil {
			continue
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil || m.ID != e.Name() {
			continue
		}
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Seq < ms[j].Seq })
	return ms, nil
}

// putTrace stores an uploaded trace content-addressed and returns its
// handle. Uploading the same bytes twice is idempotent. An existing file
// is trusted only if its bytes still hash to the digest: a crash can
// leave a torn trace behind, and the next upload of the same bytes
// replaces it.
func (st *store) putTrace(data []byte) (string, error) {
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])[:16]
	path := filepath.Join(st.dir, "traces", digest+".trace")
	if have, err := os.ReadFile(path); err == nil && sha256.Sum256(have) == sum {
		return "trace:" + digest, nil
	}
	if err := writeDurable(path, data); err != nil {
		return "", err
	}
	return "trace:" + digest, nil
}

// readTrace returns an uploaded trace's bytes by digest, re-verified
// against it. A trace torn at a record boundary still decodes cleanly
// (EOF ends the stream), so without the check a job would silently
// simulate fewer references.
func (st *store) readTrace(digest string) ([]byte, error) {
	if strings.ContainsAny(digest, "/\\.") {
		return nil, fmt.Errorf("serve: bad trace digest %q", digest)
	}
	data, err := os.ReadFile(filepath.Join(st.dir, "traces", digest+".trace"))
	if err != nil {
		return nil, fmt.Errorf("serve: unknown trace %q", digest)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:])[:16] != digest {
		return nil, fmt.Errorf("serve: trace %q is corrupt: content does not match its digest; re-upload it", digest)
	}
	return data, nil
}
