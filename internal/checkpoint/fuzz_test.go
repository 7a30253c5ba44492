package checkpoint

import (
	"errors"
	"testing"
)

// FuzzDecode asserts the decoder's arbitrary-input contract: any byte
// slice either decodes or returns a typed *ErrCorrupt — never a panic,
// never an unbounded allocation (the length clamp bounds every slice by
// the input size), and never a different error type.
func FuzzDecode(f *testing.F) {
	f.Add(sampleSnapshot().Encode())
	f.Add(encodeV1(sampleSnapshot()))
	f.Add([]byte(magic))
	f.Add([]byte(magic + "\x02\x00\x00\x00" + footer))
	f.Add([]byte("bogus"))
	f.Add([]byte{})
	trunc := sampleSnapshot().Encode()
	f.Add(trunc[:len(trunc)/2])
	flipped := sampleSnapshot().Encode()
	flipped[17] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			var ce *ErrCorrupt
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not *ErrCorrupt: %T %v", err, err)
			}
			return
		}
		// A successful decode must round-trip structurally: re-encoding
		// and re-decoding cannot fail.
		if _, err := Decode(s.Encode()); err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
	})
}
