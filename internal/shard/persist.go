package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"bbsmine/internal/iostat"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// On-disk layout. A single-shard database keeps the flat layout every
// earlier version wrote — transactions.txdb and index.bbs in the database
// directory, no manifest — so unsharded databases stay bit-compatible both
// ways. A sharded database adds a versioned manifest and moves each shard
// into its own subdirectory:
//
//	manifest.json                    {"version":1,"shards":N,"m":...,"k":...}
//	shard-000/transactions.txdb      shard 0's rows, local positions
//	shard-000/index.bbs              shard 0's BBS (sigfile's BBSSIG format)
//	shard-001/...
//
// The manifest is the commit point of the migration from the flat layout:
// it is written (temp file + rename) only after every shard's data and
// index are on disk, and the flat files are removed only after it lands, so
// a crash at any point leaves either a complete flat database or a complete
// sharded one.
const (
	manifestFile = "manifest.json"
	dataFile     = "transactions.txdb"
	indexFile    = "index.bbs"
)

// manifestVersion is the current sharded-layout version.
const manifestVersion = 1

type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	M       int `json:"m"`
	K       int `json:"k"`
}

// shardDir returns the subdirectory of shard s.
func shardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", s))
}

// readManifest loads the manifest if one exists; a nil manifest with a nil
// error means the directory uses the flat single-shard layout.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d not supported (want %d)", m.Version, manifestVersion)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("shard: manifest shard count %d < 1", m.Shards)
	}
	return &m, nil
}

// writeManifest persists the manifest atomically (temp file + rename).
func writeManifest(dir string, m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestFile+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("shard: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestFile)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("shard: committing manifest: %w", err)
	}
	return nil
}

// Open opens (or creates) a database directory with the requested shard
// count. shards = 0 means "whatever the directory already is" (1 for a new
// or flat directory). Opening a flat directory with shards > 1 migrates it
// to the sharded layout; opening a sharded directory with a different
// non-zero shard count is an error (re-sharding in place is not supported —
// mine it out and re-ingest).
func Open(dir string, m, k, shards int, stats *iostat.Stats) (*DB, error) {
	if shards < 0 {
		return nil, fmt.Errorf("shard: shard count %d < 0", shards)
	}
	if stats == nil {
		stats = &iostat.Stats{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating %s: %w", dir, err)
	}
	mf, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if mf != nil {
		if shards != 0 && shards != mf.Shards {
			return nil, fmt.Errorf("shard: %s is sharded %d ways, requested %d; re-sharding in place is not supported", dir, mf.Shards, shards)
		}
		if m != mf.M || k != mf.K {
			return nil, fmt.Errorf("shard: %s was built with m=%d k=%d, requested m=%d k=%d", dir, mf.M, mf.K, m, k)
		}
		return openLayout(dir, sighash.NewMD5(m, k), mf.Shards, stats)
	}
	if shards <= 1 {
		return openLayout(dir, sighash.NewMD5(m, k), 1, stats)
	}
	// Flat (or empty) directory, sharded layout requested: migrate.
	return migrate(dir, m, k, shards, stats)
}

// openLayout opens an existing layout: the flat one for shards == 1, the
// manifest one otherwise. Missing files are created; index tails are
// re-indexed.
func openLayout(dir string, h sighash.Hasher, shards int, stats *iostat.Stats) (*DB, error) {
	db := &DB{
		stores:     make([]txdb.Store, shards),
		files:      make([]*txdb.FileStore, shards),
		indexPaths: make([]string, shards),
		dir:        dir,
		stats:      stats,
		hasher:     h,
	}
	parts := make([]*sigfile.BBS, shards)
	fail := func(err error) (*DB, error) {
		_ = db.Close()
		return nil, err
	}
	for s := 0; s < shards; s++ {
		sd := dir
		if shards > 1 {
			sd = shardDir(dir, s)
			if err := os.MkdirAll(sd, 0o755); err != nil {
				return fail(fmt.Errorf("shard: creating %s: %w", sd, err))
			}
		}
		dataPath := filepath.Join(sd, dataFile)
		var file *txdb.FileStore
		var err error
		if _, statErr := os.Stat(dataPath); statErr == nil {
			file, err = txdb.OpenFileStore(dataPath, stats)
		} else {
			file, err = txdb.CreateFileStore(dataPath, stats)
		}
		if err != nil {
			return fail(err)
		}
		db.files[s] = file
		db.stores[s] = file

		indexPath := filepath.Join(sd, indexFile)
		db.indexPaths[s] = indexPath
		var part *sigfile.BBS
		if _, statErr := os.Stat(indexPath); statErr == nil {
			part, err = sigfile.Load(indexPath, h, stats)
			if err != nil {
				return fail(err)
			}
		} else {
			part = sigfile.New(h, stats)
		}
		if part.Len() > file.Len() {
			return fail(fmt.Errorf("shard: shard %d index covers %d transactions but store has only %d; index belongs to different data", s, part.Len(), file.Len()))
		}
		parts[s] = part
	}
	idx, err := FromParts(parts)
	if err != nil {
		return fail(err)
	}
	db.idx = idx
	if err := db.reindexTail(); err != nil {
		return fail(err)
	}
	return db, nil
}

// migrate rewrites a flat single-shard directory into the sharded layout:
// rows are routed round-robin into fresh per-shard stores and indexes, the
// manifest commits the switch, and only then are the flat files removed.
func migrate(dir string, m, k, shards int, stats *iostat.Stats) (*DB, error) {
	h := sighash.NewMD5(m, k)
	var txs []txdb.Transaction
	flatData := filepath.Join(dir, dataFile)
	if _, err := os.Stat(flatData); err == nil {
		flat, err := txdb.OpenFileStore(flatData, &iostat.Stats{})
		if err != nil {
			return nil, fmt.Errorf("shard: opening flat store for migration: %w", err)
		}
		scanErr := flat.Scan(func(pos int, tx txdb.Transaction) bool {
			txs = append(txs, tx)
			return true
		})
		if closeErr := flat.Close(); scanErr == nil {
			scanErr = closeErr
		}
		if scanErr != nil {
			return nil, fmt.Errorf("shard: reading flat store for migration: %w", scanErr)
		}
		// Deletions live in the flat index's live mask; carry them over.
	}
	var deleted []int
	flatIndex := filepath.Join(dir, indexFile)
	if _, err := os.Stat(flatIndex); err == nil {
		old, err := sigfile.Load(flatIndex, h, &iostat.Stats{})
		if err != nil {
			return nil, fmt.Errorf("shard: loading flat index for migration: %w", err)
		}
		for pos := 0; pos < old.Len() && pos < len(txs); pos++ {
			if !old.IsLive(pos) {
				deleted = append(deleted, pos)
			}
		}
	}

	for s := 0; s < shards; s++ {
		if err := os.MkdirAll(shardDir(dir, s), 0o755); err != nil {
			return nil, fmt.Errorf("shard: creating %s: %w", shardDir(dir, s), err)
		}
	}
	db := &DB{
		stores:     make([]txdb.Store, shards),
		files:      make([]*txdb.FileStore, shards),
		indexPaths: make([]string, shards),
		dir:        dir,
		stats:      stats,
		hasher:     h,
	}
	fail := func(err error) (*DB, error) {
		_ = db.Close()
		return nil, err
	}
	idx, err := NewIndex(h, shards, stats)
	if err != nil {
		return fail(err)
	}
	db.idx = idx
	for s := 0; s < shards; s++ {
		file, err := txdb.CreateFileStore(filepath.Join(shardDir(dir, s), dataFile), stats)
		if err != nil {
			return fail(err)
		}
		db.files[s] = file
		db.stores[s] = file
		db.indexPaths[s] = filepath.Join(shardDir(dir, s), indexFile)
	}
	for _, tx := range txs {
		if err := db.Append(tx); err != nil {
			return fail(fmt.Errorf("shard: migrating row: %w", err))
		}
	}
	for _, pos := range deleted {
		if err := db.Delete(pos); err != nil {
			return fail(fmt.Errorf("shard: migrating tombstone at %d: %w", pos, err))
		}
	}
	if err := db.Save(); err != nil {
		return fail(err)
	}
	if err := writeManifest(dir, manifest{Version: manifestVersion, Shards: shards, M: m, K: k}); err != nil {
		return fail(err)
	}
	// The manifest has committed the sharded layout; the flat files are now
	// dead weight. Removal failures are non-fatal — the manifest wins on the
	// next open.
	_ = os.Remove(flatData)
	_ = os.Remove(flatIndex)
	return db, nil
}
