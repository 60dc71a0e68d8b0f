package cache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// hammerEnv marks a re-exec'd test binary as a hammer child process.
const hammerEnv = "BOOTSTRAP_CACHE_HAMMER_DIR"

// hammerKey derives the i-th hammer key and its expected payload. The
// payload is a deterministic function of the key, like real entries
// (content addressing), so any process can validate any entry.
func hammerKey(i int) (Key, []byte) {
	k := Key(sha256.Sum256([]byte(fmt.Sprintf("hammer-%d", i))))
	data := make([]byte, 64+i*7)
	for j := range data {
		data[j] = byte(i + j)
	}
	return k, data
}

// hammer runs 8 goroutines storing and loading an overlapping key set
// against one shared directory — the access pattern of concurrent
// analyses publishing per-cluster results to one -cache-dir.
func hammer(dir string, seed int64) {
	c := New(Options{Dir: dir, MaxBytes: 1 << 12}) // tiny memory tier: force disk traffic
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for iter := 0; iter < 200; iter++ {
				i := rng.Intn(16)
				k, want := hammerKey(i)
				if rng.Intn(2) == 0 {
					c.Put(k, append([]byte(nil), want...))
				} else if data, ok := c.Get(k); ok {
					if len(data) != len(want) || (len(data) > 0 && data[0] != want[0]) {
						panic(fmt.Sprintf("hammer: key %d returned wrong payload (%d bytes)", i, len(data)))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHammerChild is not a test of its own: it is the body of the
// child processes TestConcurrentProcessesHammer re-execs.
func TestHammerChild(t *testing.T) {
	dir := os.Getenv(hammerEnv)
	if dir == "" {
		t.Skip("not a hammer child")
	}
	hammer(dir, 1)
}

// TestConcurrentProcessesHammer drives the disk tier the way processes
// sharing a -cache-dir do: 8 goroutines in each of 2 OS processes (plus
// this process) hammering one cache directory, while a corruptor keeps
// garbling and truncating entry files under them. The invariants: no process may
// panic, and a corrupted entry must read as a miss — never as a wrong
// payload or a crash.
func TestConcurrentProcessesHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process hammer")
	}
	dir := t.TempDir()
	children := make([]*exec.Cmd, 2)
	outputs := make([]*bytes.Buffer, 2)
	for i := range children {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestHammerChild$", "-test.v")
		cmd.Env = append(os.Environ(), hammerEnv+"="+dir)
		outputs[i] = &bytes.Buffer{}
		cmd.Stdout, cmd.Stderr = outputs[i], outputs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn hammer child: %v", err)
		}
		children[i] = cmd
	}

	// The corruptor: while the children run, repeatedly garble or
	// truncate whatever entries exist.
	stop := make(chan struct{})
	var corrWG sync.WaitGroup
	corrWG.Add(1)
	go func() {
		defer corrWG.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			ents, _ := filepath.Glob(filepath.Join(dir, "*.bsc"))
			for _, e := range ents {
				switch rng.Intn(3) {
				case 0:
					os.WriteFile(e, []byte("garbage"), 0o644)
				case 1:
					os.Truncate(e, 3)
				}
			}
		}
	}()

	hammer(dir, 2) // this process participates too
	for i, cmd := range children {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("hammer child %d failed: %v\n%s", i, err, outputs[i])
		}
	}
	close(stop)
	corrWG.Wait()

	// Post-mortem with a fresh cache: every key reads back either its
	// exact expected payload or a clean miss.
	c := New(Options{Dir: dir})
	misses := 0
	for i := 0; i < 16; i++ {
		k, want := hammerKey(i)
		data, ok := c.Get(k)
		if !ok {
			misses++
			continue
		}
		if string(data) != string(want) {
			t.Errorf("key %d: corrupted entry served as a hit (%d bytes)", i, len(data))
		}
	}
	t.Logf("post-hammer: %d/16 keys corrupted away (clean misses)", misses)
}

// TestWriteDiskDedupesExistingEntry checks the stampede guard: once an
// entry is published, a second Put of the same key skips the disk write
// entirely (no temp-file churn), because content-addressed entries are
// immutable.
func TestWriteDiskDedupesExistingEntry(t *testing.T) {
	dir := t.TempDir()
	k, data := hammerKey(0)

	c1 := New(Options{Dir: dir})
	c1.Put(k, append([]byte(nil), data...))
	path := filepath.Join(dir, k.String()+".bsc")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatalf("entry not published: %v", err)
	}

	c2 := New(Options{Dir: dir})
	c2.Put(k, append([]byte(nil), data...))
	after, err := os.Stat(path)
	if err != nil {
		t.Fatalf("entry vanished: %v", err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("second Put of an existing key rewrote the entry")
	}
	if got, ok := c2.Get(k); !ok || string(got) != string(data) {
		t.Fatalf("entry unreadable after dedup: ok=%v", ok)
	}
}
