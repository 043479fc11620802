package exp

import (
	"errors"
	"testing"

	"edb/internal/arch"
	"edb/internal/core/codepatch"
	"edb/internal/minic"
	"edb/internal/progs"
)

// TestStaleArtifactsAfterImageMutation is the regression test for a
// real bug class: a host analyses a benchmark through the artifact
// cache while a live session incrementally re-patches the same
// program's image. The cached interproc layer, check-class plan, and
// prepass describe the pre-mutation image; before the generation
// check they were silently reused. Now the mutation evicts the cache
// entry, a held reference fails its next use with a typed
// StaleArtifactError, and a fresh lookup rebuilds from scratch.
func TestStaleArtifactsAfterImageMutation(t *testing.T) {
	ResetCache()
	p, err := progs.ByName("bps", 1)
	if err != nil {
		t.Fatal(err)
	}
	art, err := cachedArtifacts(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := art.fresh(); err != nil {
		t.Fatalf("fresh artifacts report stale: %v", err)
	}
	again, err := cachedArtifacts(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != art {
		t.Fatal("warm lookup did not serve the memoised artifacts")
	}

	// A live image of the same program mutates mid-run: grow the watch
	// set over the first data symbol, with the cache tracking the image.
	prog, err := minic.Compile(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	img, err := codepatch.BuildImage(prog, codepatch.PatchOptions{Optimize: true}, arch.PageSize4K, nil)
	if err != nil {
		t.Fatal(err)
	}
	TrackImage(img, p.Name)
	coldBuilds := builds.Load()
	var watched *arch.Range
	for _, r := range img.M.Image.Data {
		watched = &arch.Range{BA: r.BA, EA: r.EA}
		break
	}
	if watched == nil {
		t.Fatal("bps image has no data symbols to monitor")
	}
	if err := img.InstallMonitor(watched.BA, watched.EA); err != nil {
		t.Fatal(err)
	}

	// The held reference is now typed-stale, not silently reusable.
	var stale *StaleArtifactError
	if err := art.fresh(); !errors.As(err, &stale) {
		t.Fatalf("stale artifacts' freshness check returned %v, want StaleArtifactError", err)
	}
	if stale.Program != p.Name || stale.CurrentGen != stale.BuiltGen+1 {
		t.Fatalf("stale error mis-attributed: %+v", stale)
	}

	// The cache entry was evicted: the next lookup is a cold rebuild,
	// with a fresh interproc layer computed against the mutated
	// generation.
	rebuilt, err := cachedArtifacts(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == art {
		t.Fatal("mutation did not evict the cached artifacts")
	}
	if builds.Load() != coldBuilds+1 {
		t.Fatalf("rebuild count %d, want %d", builds.Load(), coldBuilds+1)
	}
	if rebuilt.interproc == art.interproc {
		t.Fatal("rebuilt artifacts reuse the stale interproc layer")
	}
	if err := rebuilt.fresh(); err != nil {
		t.Fatalf("rebuilt artifacts report stale: %v", err)
	}

	// Every mutation kind re-stales: removing the watched range through
	// the same image bumps the generation again.
	if img.Stats.Installs != 1 {
		t.Fatalf("Installs = %d, want 1", img.Stats.Installs)
	}
	if err := img.RemoveMonitor(watched.BA, watched.EA); err != nil {
		t.Fatal(err)
	}
	if rebuilt.fresh() == nil {
		t.Fatal("successful RemoveMonitor did not invalidate the cache")
	}
}

// TestStaleArtifactMutationDuringBuild: a mutation landing while the
// pipeline is mid-build makes the result stale before it is ever
// memoised — the build must surface the typed error and cache
// nothing.
func TestStaleArtifactMutationDuringBuild(t *testing.T) {
	ResetCache()
	p, err := progs.ByName("bps", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the race deterministically: snapshot the generation the
	// build starts at, then mutate before the result is consumed.
	genBefore := imageGen(p.Name)
	art, err := cachedArtifacts(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if art.gen != genBefore {
		t.Fatalf("artifacts pinned to generation %d, want %d", art.gen, genBefore)
	}
	NoteImageMutation(p.Name)
	var stale *StaleArtifactError
	if err := art.fresh(); !errors.As(err, &stale) {
		t.Fatalf("post-mutation freshness check returned %v, want StaleArtifactError", err)
	}
	if CacheSize() != 0 {
		t.Fatalf("mutation left %d cache entries for the program", CacheSize())
	}
}
