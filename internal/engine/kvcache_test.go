package engine

import (
	"testing"
	"testing/quick"
)

// keys and values are the committed [Len, kvDim] rows of a layer.
func (c *KVCache) keys(layer int) []float32 {
	k, _ := c.Run(layer, 0)
	return k[:c.n*c.kvDim]
}

func (c *KVCache) values(layer int) []float32 {
	_, v := c.Run(layer, 0)
	return v[:c.n*c.kvDim]
}

func TestKVCacheBasics(t *testing.T) {
	c := NewKVCache(2, 4, 8)
	if c.Len() != 0 || c.Cap() != 8 {
		t.Fatal("fresh cache state wrong")
	}
	k := []float32{1, 2, 3, 4}
	v := []float32{5, 6, 7, 8}
	c.Put(0, 0, k, v)
	c.Put(1, 0, v, k)
	c.ExtendTo(1)
	if c.Len() != 1 {
		t.Fatal("extend failed")
	}
	got := c.keys(0)
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("keys(0) = %v", got)
	}
	if c.values(1)[0] != 1 {
		t.Errorf("values(1) = %v", c.values(1))
	}
	if c.Bytes() != int64(2*8*4*4*2) {
		t.Errorf("Bytes = %d", c.Bytes())
	}
}

func TestKVCacheLayerIsolation(t *testing.T) {
	c := NewKVCache(3, 2, 4)
	c.Put(0, 0, []float32{1, 1}, []float32{1, 1})
	c.Put(1, 0, []float32{2, 2}, []float32{2, 2})
	c.Put(2, 0, []float32{3, 3}, []float32{3, 3})
	c.ExtendTo(1)
	for layer := 0; layer < 3; layer++ {
		if c.keys(layer)[0] != float32(layer+1) {
			t.Errorf("layer %d keys = %v", layer, c.keys(layer))
		}
	}
}

func TestKVCacheViews(t *testing.T) {
	c := NewKVCache(1, 2, 4)
	for p := 0; p < 3; p++ {
		c.Put(0, p, []float32{float32(p), 0}, []float32{0, float32(p)})
	}
	c.ExtendTo(2)
	if len(c.keys(0)) != 4 { // 2 committed positions × dim 2
		t.Errorf("committed view length %d", len(c.keys(0)))
	}
	// Rows written but not yet committed are readable through Run.
	if _, v := c.Run(0, 0); v[5] != 2 {
		t.Errorf("uncommitted row content wrong: %v", v[:6])
	}
}

func TestKVCacheReset(t *testing.T) {
	c := NewKVCache(1, 2, 4)
	c.Put(0, 0, []float32{1, 2}, []float32{3, 4})
	c.ExtendTo(1)
	c.Reset()
	if c.Len() != 0 || len(c.keys(0)) != 0 {
		t.Error("reset failed")
	}
}

func TestKVCachePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	c := NewKVCache(1, 2, 2)
	mustPanic("bad dim", func() { c.Put(0, 0, []float32{1}, []float32{1, 2}) })
	mustPanic("bad pos", func() { c.Put(0, 2, []float32{1, 2}, []float32{1, 2}) })
	mustPanic("bad layer", func() { c.Put(1, 0, []float32{1, 2}, []float32{1, 2}) })
	mustPanic("extend beyond cap", func() { c.ExtendTo(3) })
	c.ExtendTo(1)
	mustPanic("shrink", func() { c.ExtendTo(0) })
}

func TestKVCacheRoundTripProperty(t *testing.T) {
	// Property: what goes in comes back out at the same (layer, pos).
	f := func(layerRaw, posRaw uint8, a, b float32) bool {
		c := NewKVCache(4, 2, 8)
		layer, pos := int(layerRaw%4), int(posRaw%8)
		c.Put(layer, pos, []float32{a, b}, []float32{b, a})
		c.ExtendTo(8)
		k := c.keys(layer)
		v := c.values(layer)
		return k[pos*2] == a && k[pos*2+1] == b && v[pos*2] == b && v[pos*2+1] == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
