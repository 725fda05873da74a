package wfq

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// update rewrites the recorded schedule from the scheduler under test.
var update = flag.Bool("update", false, "rewrite testdata/seeded_stream.golden")

// TestSeededStreamSchedule drives one seeded task stream through a
// worker-less layer, taking the workers' steps on the test goroutine:
// pop a CPU task, finish its CPU stage (a hit, or a miss handed to the
// I/O layer), pop an I/O task, finish it. It must dequeue the tasks in
// the order and at the VFTs, and take the Rule 3 skips and Rule 4 extra
// workers, that testdata/seeded_stream.golden records: the schedule the
// layer produced when it kept its books in maps keyed by tenant name,
// before they moved onto per-tenant flows. The stream makes one tenant a
// hog, so both rules fire. A change meant to alter scheduling reruns the
// test with -update and commits the new schedule.
func TestSeededStreamSchedule(t *testing.T) {
	events, st := runSeededStream(t, 7)
	got := fmt.Sprintf("%sstats %+v\n", strings.Join(events, "\n")+"\n", st)
	const golden = "testdata/seeded_stream.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("line %d: %q, recorded %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("%d lines, recorded %d", len(g), len(w))
	}
	t.Logf("%d events; stats %+v", len(events), st)
	if st.Rule3Skips == 0 || st.ExtraSpawns == 0 {
		t.Fatalf("stats %+v: the stream did not exercise Rules 3 and 4", st)
	}
}

// runSeededStream runs the seeded stream and returns what it dequeued
// and the layer's stats after it.
func runSeededStream(t *testing.T, seed int64) (events []string, st Stats) {
	t.Helper()
	const workers, basic = 10, 2
	d := newDualLayer(Config{CPUWorkers: workers, BasicIOThreads: basic, ExtraIOThreads: 2})
	rng := rand.New(rand.NewSource(seed))
	record := func(format string, args ...any) { events = append(events, fmt.Sprintf(format, args...)) }
	tenants := []struct {
		name  string
		share float64
	}{{"hog", 0.4}, {"a", 0.3}, {"b", 0.2}, {"c", 0.1}}
	var cpuHeld, ioHeld []*Task
	for id := 0; id < 3000; id++ {
		// Pops outpace finishes, so the CPU slots run full.
		switch step := rng.Intn(7); {
		case step <= 1: // a new task, the hog's seven times in eight
			tn := tenants[0]
			if rng.Intn(8) == 0 {
				tn = tenants[1+rng.Intn(3)]
			}
			miss := rng.Intn(2) == 0
			tk := &Task{Tenant: tn.name, QuotaShare: tn.share, RUCost: float64(1 + rng.Intn(4)), IOPSCost: float64(1 + rng.Intn(3))}
			name := fmt.Sprintf("%s#%d", tn.name, id)
			tk.CPUStage = func() bool { return miss }
			tk.IOStage = func() { record("extra I/O %s", name) } // only an extra worker runs it
			tk.Partition = name
			if !d.Submit(tk) {
				t.Fatal("Submit refused a task")
			}
		case step <= 3 && len(cpuHeld) < workers && d.Stats().CPUQueued > 0:
			tk := d.nextCPU()
			record("CPU %s vft %.4f", tk.Partition, tk.vft)
			cpuHeld = append(cpuHeld, tk)
		case step == 4 && len(cpuHeld) > 0:
			i := rng.Intn(len(cpuHeld))
			tk := cpuHeld[i]
			cpuHeld = slices.Delete(cpuHeld, i, i+1)
			if !tk.CPUStage() {
				d.releaseCPU(tk.flow)
				d.resolve(tk, nil)
				continue
			}
			d.handOff(tk, false)
			waitExtraWorkers(t, d)
		case step == 5 && len(ioHeld) < basic && d.Stats().IOQueued > 0:
			tk := d.nextIO()
			record("I/O %s vft %.4f", tk.Partition, tk.vft)
			ioHeld = append(ioHeld, tk)
		case step == 6 && len(ioHeld) > 0:
			i := rng.Intn(len(ioHeld))
			tk := ioHeld[i]
			ioHeld = slices.Delete(ioHeld, i, i+1)
			d.releaseIO(tk.flow)
			d.resolve(tk, nil)
		}
	}
	return events, d.Stats()
}

// waitExtraWorkers waits until the Rule 4 extra workers a hand-off
// spawned have served what they may and exited, so the stream's next
// step finds the layer as the same stream always leaves it.
func waitExtraWorkers(t *testing.T, d *DualLayer) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Microsecond) {
		d.mu.Lock()
		alive := d.extraAlive
		d.mu.Unlock()
		if alive == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("a Rule 4 extra worker did not exit")
		}
	}
}
