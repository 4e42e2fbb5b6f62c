package model_test

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/propset"
)

// prefixNamesInstance is hand-built so that canonical row order is
// decided by every rule of the bccfp encoding at once: property names
// that share prefixes, that differ only in length, that sort one way
// by bytes and another by length, and that are multibyte UTF-8.
func prefixNamesInstance() *model.Instance {
	b := model.NewBuilder()
	b.AddQuery(3, "ab", "a")
	b.AddQuery(5, "abc")
	b.AddQuery(2, "b", "aa")
	b.AddQuery(7, "é", "e")
	b.AddQuery(1, "日本語", "日本", "z")
	b.AddQuery(4, "Z", "ä", "aä")
	b.AddQuery(6, "a", "b")
	b.AddQuery(9, "zz", "ab", "abc", "é")
	b.SetCost(2, "ab")
	b.SetCost(0, "a")
	b.SetCost(5, "日本語", "日本")
	b.SetCost(1.5, "é")
	b.SetCost(math.Inf(1), "z")
	b.SetCost(0.25, "aä", "Z")
	b.SetDefaultCost(func(s propset.Set) float64 { return 1 + float64(s.Len()) })
	return b.MustInstance(12)
}

// TestFingerprintPins pins bccfp/1 and bccfp2/1 on instances shaped
// like real traffic, beside the tiny ones TestFingerprintGolden and
// TestFingerprint2Golden pin. Persisted cache snapshots are keyed by
// these hashes, so a rewrite of the hashing code must reproduce them
// bit for bit; on a deliberate encoding change, bump the version tags
// and regenerate.
func TestFingerprintPins(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      *model.Instance
		fp, fp2 string
	}{
		{"private-501-1000", dataset.Private(501, 1000),
			"d98f87bcb368d4abab68f31f0744b6c6ab833e9430865b3e87762a6e5ca91aa1",
			"ae59d72d1c42f4ddec7fce9462b56f9e35119baaaf875e9bfbe33f66d369a24a"},
		{"synthetic-3-600-300", dataset.Synthetic(3, 600, 300),
			"103e3df346f5a839a289375c525512a3822c43a633324c5dc3c8dca7e7984a73",
			"ef5bca9384915c32e6349f6a57bf815baf54a5dbbe44d1232b385476a8fefd06"},
		{"bestbuy-4-200", dataset.BestBuy(4, 200),
			"cf91cb77477a9783b80bd13e60a67d721ce1e76fa336de4b806e1eec55c4a973",
			"ccb08b79d599aa37eb5cc438396bf68a5bfa60f75f5dea5ca4116fec1f233fff"},
		{"prefix-names", prefixNamesInstance(),
			"70bcbbe23dad1fa3db50914b8e7f0429af725adf5b644627c8ac5e07853685d6",
			"79ce505ea70d338c661be3dcfd99b0c3226aa9e9bb60a594e6b70365e304f916"},
	} {
		if got := tc.in.Fingerprint(); got != tc.fp {
			t.Errorf("%s: fingerprint = %s, want %s", tc.name, got, tc.fp)
		}
		if got := tc.in.Fingerprint2(); got != tc.fp2 {
			t.Errorf("%s: fingerprint2 = %s, want %s", tc.name, got, tc.fp2)
		}
	}
}
