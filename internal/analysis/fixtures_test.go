package analysis

import "testing"

// TestFixtures runs every suite analyzer over its testdata fixture package
// and requires an exact match between the diagnostics produced and the
// `// want "re"` annotations: each analyzer must catch its seeded
// violations and stay silent on the conforming code next to them.
func TestFixtures(t *testing.T) {
	for _, a := range Suite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			problems, err := FixtureDiff(a, FixtureDir(a.Name))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}
