package cache

import (
	"container/list"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"bootstrap/internal/obs"
)

// Version is the on-disk entry format version. A version mismatch on
// read is a miss, so bumping it invalidates every existing disk tier
// without deleting anything. Version 2: payloads carry the engine's
// work counters in Prog_P tuples (the walk skips pass-through nodes),
// so entries written under version 1, which counted every CFG node
// visited, are re-solved instead of mixing the two units.
const Version uint32 = 2

// diskMagic brands every on-disk entry.
const diskMagic = "BTSCACHE"

// headerSize is the fixed envelope prefix: magic, version, key echo,
// payload length, payload checksum.
const headerSize = len(diskMagic) + 4 + len(Key{}) + 8 + 4

// DefaultMaxBytes bounds the in-memory tier when Options.MaxBytes is 0.
const DefaultMaxBytes = 64 << 20

// Stats are the cache's monotone traffic counters.
type Stats struct {
	Hits         int64
	Misses       int64
	BytesRead    int64 // payload bytes served by Get
	BytesWritten int64 // payload bytes accepted by Put
}

// Sub returns the counter deltas s - t, for per-run windows over a
// shared cache.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Hits:         s.Hits - t.Hits,
		Misses:       s.Misses - t.Misses,
		BytesRead:    s.BytesRead - t.BytesRead,
		BytesWritten: s.BytesWritten - t.BytesWritten,
	}
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Options configure a Cache.
type Options struct {
	// MaxBytes bounds the in-memory tier's total payload bytes; least
	// recently used entries are evicted past it. 0 = DefaultMaxBytes;
	// negative = unbounded.
	MaxBytes int64
	// Dir, when non-empty, enables the on-disk tier: entries are written
	// as versioned, checksummed files under it and survive the process.
	// Disk writes are best-effort (an I/O error drops the entry); disk
	// reads validate everything and treat any mismatch as a miss.
	Dir string
}

type memEntry struct {
	key  Key
	data []byte
}

// Cache is a two-tier content-addressed store for serialized per-cluster
// results: an in-memory LRU over an optional on-disk tier. Safe for
// concurrent use.
type Cache struct {
	mu    sync.Mutex
	opts  Options
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
	bytes int64
	stats Stats
}

// New creates a cache.
func New(opts Options) *Cache {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		opts:  opts,
		ll:    list.New(),
		items: map[Key]*list.Element{},
	}
}

// Get returns the payload stored under k. A disk-tier hit is promoted
// into memory. Every call counts exactly one hit or miss.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		data := el.Value.(*memEntry).data
		c.stats.Hits++
		c.stats.BytesRead += int64(len(data))
		return data, true
	}
	if data, ok := c.readDisk(k); ok {
		c.insert(k, data)
		c.stats.Hits++
		c.stats.BytesRead += int64(len(data))
		return data, true
	}
	c.stats.Misses++
	return nil, false
}

// Put stores the payload under k in both tiers. The cache takes
// ownership of data.
func (c *Cache) Put(k Key, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.BytesWritten += int64(len(data))
	c.insert(k, data)
	c.writeDisk(k, data)
}

// Corrupt reports that the payload Get returned for k failed to decode:
// the entry is dropped from both tiers and the hit is re-booked as a
// miss, keeping the counters truthful. The decode failure itself stays
// an ordinary miss for the caller — never an error.
func (c *Cache) Corrupt(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.remove(el)
	}
	if c.opts.Dir != "" {
		os.Remove(c.path(k))
	}
	c.stats.Hits--
	c.stats.Misses++
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the total payload bytes held by the in-memory tier.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Register exposes the cache's live counters on a metrics registry
// (nil-safe no-op without one): traffic as counters read at scrape time,
// occupancy as gauges. Register once per cache — the metrics read
// through to this cache for its whole lifetime.
func (c *Cache) Register(m *obs.Metrics) {
	m.CounterFunc("bootstrap_cache_hits_total",
		"result-cache lookups served from memory or disk", func() int64 { return c.Stats().Hits })
	m.CounterFunc("bootstrap_cache_misses_total",
		"result-cache lookups that found nothing", func() int64 { return c.Stats().Misses })
	m.CounterFunc("bootstrap_cache_read_bytes_total",
		"payload bytes served by result-cache hits", func() int64 { return c.Stats().BytesRead })
	m.CounterFunc("bootstrap_cache_written_bytes_total",
		"payload bytes accepted by result-cache stores", func() int64 { return c.Stats().BytesWritten })
	m.GaugeFunc("bootstrap_cache_entries",
		"entries in the result cache's in-memory tier", func() float64 { return float64(c.Len()) })
	m.GaugeFunc("bootstrap_cache_bytes",
		"payload bytes in the result cache's in-memory tier", func() float64 { return float64(c.Bytes()) })
}

// insert adds or replaces the in-memory entry and evicts LRU entries
// past the byte bound. Caller holds c.mu.
func (c *Cache) insert(k Key, data []byte) {
	if el, ok := c.items[k]; ok {
		c.remove(el)
	}
	el := c.ll.PushFront(&memEntry{key: k, data: data})
	c.items[k] = el
	c.bytes += int64(len(data))
	if c.opts.MaxBytes < 0 {
		return
	}
	for c.bytes > c.opts.MaxBytes && c.ll.Len() > 1 {
		c.remove(c.ll.Back())
	}
}

// remove drops one in-memory entry. Caller holds c.mu.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*memEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= int64(len(e.data))
}

func (c *Cache) path(k Key) string {
	return filepath.Join(c.opts.Dir, k.String()+".bsc")
}

// encodeEntry builds the on-disk envelope around one payload: magic,
// version, key echo, payload length, payload checksum, payload. The
// envelope is the unit FuzzDecodeEntry exercises.
func encodeEntry(k Key, data []byte) []byte {
	buf := make([]byte, 0, headerSize+len(data))
	buf = append(buf, diskMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = append(buf, k[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(data)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(data))
	buf = append(buf, data...)
	return buf
}

// decodeEntry validates one on-disk envelope against the key it was
// looked up under and returns the payload. Any defect — short input,
// wrong magic/version/key echo, length or checksum mismatch — is
// reported as absence, never a panic: disk corruption must read as a
// cache miss.
func decodeEntry(k Key, raw []byte) ([]byte, bool) {
	if len(raw) < headerSize {
		return nil, false
	}
	off := 0
	if string(raw[:len(diskMagic)]) != diskMagic {
		return nil, false
	}
	off += len(diskMagic)
	if binary.LittleEndian.Uint32(raw[off:]) != Version {
		return nil, false
	}
	off += 4
	var echo Key
	copy(echo[:], raw[off:])
	if echo != k {
		return nil, false
	}
	off += len(Key{})
	n := binary.LittleEndian.Uint64(raw[off:])
	off += 8
	sum := binary.LittleEndian.Uint32(raw[off:])
	off += 4
	payload := raw[off:]
	if uint64(len(payload)) != n || crc32.ChecksumIEEE(payload) != sum {
		return nil, false
	}
	return payload, true
}

// readDisk loads and validates one disk entry. Any problem — missing
// file, short read, wrong magic/version/key, length or checksum
// mismatch — is reported as absence.
func (c *Cache) readDisk(k Key) ([]byte, bool) {
	if c.opts.Dir == "" {
		return nil, false
	}
	raw, err := os.ReadFile(c.path(k))
	if err != nil {
		return nil, false
	}
	return decodeEntry(k, raw)
}

// writeDisk stores one disk entry atomically (temp file + rename) so a
// crash never leaves a half-written entry under the final name — a
// reader racing a writer sees either the complete old file or the
// complete new one, never a torn entry, and concurrent writers of the
// same key are harmless because content addressing makes their payloads
// identical. Errors are swallowed: the disk tier is an optimization,
// not a requirement.
//
// The tier is multi-process safe by construction (several bootstrap
// -cache-dir runs may share one directory), and two cheap guards keep
// those processes from stampeding: entries are immutable once
// renamed into place, so an existing file short-circuits the write
// entirely, and a non-blocking flock on a per-key sidecar skips the
// write when another process is already mid-store of the same content.
func (c *Cache) writeDisk(k Key, data []byte) {
	if c.opts.Dir == "" {
		return
	}
	path := c.path(k)
	if _, err := os.Stat(path); err == nil {
		return // immutable entry already published (by us or a peer)
	}
	if err := os.MkdirAll(c.opts.Dir, 0o755); err != nil {
		return
	}
	unlock, ok := tryLockKey(path)
	if !ok {
		return // a peer process is writing these exact bytes right now
	}
	defer unlock()
	if _, err := os.Stat(path); err == nil {
		return // the peer won the lock race and already published
	}
	buf := encodeEntry(k, data)
	tmp, err := os.CreateTemp(c.opts.Dir, "put-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
	}
}
