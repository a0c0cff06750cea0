// Package ckpt provides deterministic checkpoint/restore of a complete
// pipelined-switch simulation — core switch state, traffic and fault RNG
// streams, buffer-policy spec and the run driver's loop-carried tallies —
// plus the Session orchestrator that runs with periodic auto-checkpoints,
// online invariant audits and a no-progress watchdog.
//
// The correctness bar is replay equivalence: a run restored from a
// checkpoint taken at cycle k must produce a bit-identical RunResult (and
// trace-event stream from k onward) to the uninterrupted run.
//
// # File format
//
// A checkpoint file is one ASCII header line followed by a JSON body:
//
//	pmckpt v<version> len=<bytes> crc=<crc32-ieee-hex>\n
//	{ ... Checkpoint JSON ... }
//
// The header carries the format version and a CRC32 (IEEE) of the body, so
// truncation and corruption are detected before any field is trusted.
// Files are written crash-consistently: the body goes to a temp file in
// the destination directory, is fsynced, and is renamed over the target —
// a reader never observes a half-written checkpoint.
//
// # Compatibility policy
//
// The format version is bumped whenever any serialized struct changes
// incompatibly. A build reads exactly the version it writes: restore
// across versions is refused with an actionable error rather than risking
// a silently divergent replay. Old checkpoints are re-creatable by rerunning
// the (deterministic) simulation to the same cycle with the old build.
package ckpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// FormatVersion is the checkpoint file format this build reads and writes.
const FormatVersion = 3

const magic = "pmckpt"

// Save writes the checkpoint to path atomically: temp file in the same
// directory, fsync, rename. On any error the target file is untouched.
func Save(path string, c *Checkpoint) error {
	body, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("ckpt: marshal: %w", err)
	}
	header := fmt.Sprintf("%s v%d len=%d crc=%08x\n", magic, FormatVersion, len(body), crc32.ChecksumIEEE(body))

	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.WriteString(header); err != nil {
		return cleanup(fmt.Errorf("ckpt: write %s: %w", tmp, err))
	}
	if _, err := f.Write(body); err != nil {
		return cleanup(fmt.Errorf("ckpt: write %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("ckpt: sync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	// Persist the rename itself. Failure here is not fatal to consistency
	// (the rename is atomic either way), so sync errors are ignored.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Load reads and validates a checkpoint file: magic, format version, body
// length and CRC are all checked before the JSON is decoded.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !strings.HasPrefix(string(data[:nl]), magic+" ") {
		return nil, fmt.Errorf("ckpt: %s is not a pipemem checkpoint (missing %q header)", path, magic)
	}
	var ver, n int
	var crc uint32
	if _, err := fmt.Sscanf(string(data[:nl]), magic+" v%d len=%d crc=%x", &ver, &n, &crc); err != nil {
		return nil, fmt.Errorf("ckpt: %s: malformed header %q", path, data[:nl])
	}
	if ver != FormatVersion {
		return nil, fmt.Errorf("ckpt: %s is format v%d but this build reads v%d; re-create the checkpoint with a matching build (deterministic runs reproduce it exactly — see DESIGN.md §11)",
			path, ver, FormatVersion)
	}
	body := data[nl+1:]
	if len(body) != n {
		return nil, fmt.Errorf("ckpt: %s: body is %d bytes, header says %d (truncated or overwritten)", path, len(body), n)
	}
	if got := crc32.ChecksumIEEE(body); got != crc {
		return nil, fmt.Errorf("ckpt: %s: body CRC %08x does not match header %08x (corrupted)", path, got, crc)
	}
	c := new(Checkpoint)
	if err := json.Unmarshal(body, c); err != nil {
		return nil, fmt.Errorf("ckpt: %s: decode: %w", path, err)
	}
	if c.Format != FormatVersion {
		return nil, fmt.Errorf("ckpt: %s: body declares format v%d, header v%d", path, c.Format, ver)
	}
	return c, nil
}
