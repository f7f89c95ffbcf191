package apdb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// These tests pin the edge cases of the store's grid-indexed spatial
// queries (Within, Nearest) that the scan-equivalence property in
// store_test.go does not reach: an empty store, a negative radius, a
// point far off the grid, and Adds made after the grid was first built.

func randomDB(n int, seed int64) (*Store, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	db := New()
	for i := 0; i < n; i++ {
		db.Add(Entry{
			BSSID: mac(byte(i)),
			Pos:   geom.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000),
		})
	}
	return db, rng
}

func TestGridIndexWithinEdgeCases(t *testing.T) {
	db, _ := randomDB(10, 2)
	if got := db.Within(geom.Pt(0, 0), -1); len(got) != 0 {
		t.Error("negative radius should return nothing")
	}
	if got := db.Within(geom.Pt(1e7, 1e7), 10); len(got) != 0 {
		t.Error("far query should be empty")
	}
}

func TestGridIndexNearest(t *testing.T) {
	if _, ok := New().Nearest(geom.Pt(0, 0)); ok {
		t.Error("empty store should report !ok")
	}
	db, rng := randomDB(150, 3)
	f := func(seed int64) bool {
		p := geom.Pt(rng.Float64()*2400-1200, rng.Float64()*2400-1200)
		got, ok := db.Nearest(p)
		if !ok {
			return false
		}
		// Compare against linear scan.
		best := math.Inf(1)
		var want Entry
		for _, e := range db.All() {
			if d := e.Pos.Dist(p); d < best {
				best = d
				want = e
			}
		}
		return got.BSSID == want.BSSID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGridIndexSeesLaterAdds pins that the grid never goes stale: once
// Within and Nearest have built it, an Add is still visible to the next
// Within, Nearest and Get.
func TestGridIndexSeesLaterAdds(t *testing.T) {
	db, _ := randomDB(50, 6)
	// Warm every query path so any one-shot caching would be locked in.
	db.Within(geom.Pt(0, 0), 100)
	db.Nearest(geom.Pt(5000, 5000))

	late := Entry{BSSID: mac(200), Pos: geom.Pt(5000, 5000), MaxRange: 80}
	db.Add(late)

	if db.Len() != 51 {
		t.Fatalf("Len after Add = %d, want 51", db.Len())
	}
	got, ok := db.Get(late.BSSID)
	if !ok || got != late {
		t.Fatalf("Get after Add = %+v, %v", got, ok)
	}
	within := db.Within(geom.Pt(5000, 5000), 10)
	if len(within) != 1 || within[0].BSSID != late.BSSID {
		t.Fatalf("Within after Add = %+v, want the late AP", within)
	}
	near, ok := db.Nearest(geom.Pt(4990, 5010))
	if !ok || near.BSSID != late.BSSID {
		t.Fatalf("Nearest after Add = %+v, %v, want the late AP", near, ok)
	}
}
