package inject

import "testing"

func TestSpecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		m    ErrorModel
		spec string
	}{
		{BitFlip{Bit: 0}, "bitflip:0"},
		{BitFlip{Bit: 15}, "bitflip:15"},
		{StuckAt{Bit: 3}, "stuckat0:3"},
		{StuckAt{Bit: 7, One: true}, "stuckat1:7"},
		{Replace{Value: 0}, "replace:0"},
		{Replace{Value: 65535}, "replace:65535"},
		{Offset{Delta: -129}, "offset:-129"},
		{Offset{Delta: 77}, "offset:77"},
	} {
		spec, err := Spec(tc.m)
		if err != nil {
			t.Fatalf("Spec(%v): %v", tc.m, err)
		}
		if spec != tc.spec {
			t.Errorf("Spec(%v) = %q, want %q", tc.m, spec, tc.spec)
		}
		back, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if back != tc.m {
			t.Errorf("round trip %v -> %q -> %v", tc.m, spec, back)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"", "bitflip", "bitflip:", "bitflip:16", "bitflip:-1", "bitflip:x",
		"stuckat0:99", "stuckat2:1", "replace:65536", "replace:-1", "warp:3",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted garbage", spec)
		}
	}
}

type customModel struct{}

func (customModel) Mutate(v uint16) uint16 { return v }
func (customModel) String() string         { return "custom" }

func TestSpecRejectsUnknownModel(t *testing.T) {
	if _, err := Spec(customModel{}); err == nil {
		t.Error("Spec accepted a model with no spec syntax")
	}
}
