package inject

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec renders an error model in the machine-readable syntax shared
// by experiment-description files (internal/expfile) and campaign
// journals (internal/runner): "bitflip:N", "stuckat0:N", "stuckat1:N",
// "replace:V" and "offset:D". Unlike String, the rendering
// round-trips through ParseSpec.
func Spec(m ErrorModel) (string, error) {
	switch m := m.(type) {
	case BitFlip:
		return "bitflip:" + strconv.FormatUint(uint64(m.Bit), 10), nil
	case StuckAt:
		if m.One {
			return "stuckat1:" + strconv.FormatUint(uint64(m.Bit), 10), nil
		}
		return "stuckat0:" + strconv.FormatUint(uint64(m.Bit), 10), nil
	case Replace:
		return "replace:" + strconv.FormatUint(uint64(m.Value), 10), nil
	case Offset:
		return "offset:" + strconv.FormatInt(int64(m.Delta), 10), nil
	default:
		return "", fmt.Errorf("inject: model %s has no spec syntax", m)
	}
}

// ParseSpec decodes a Spec rendering back into its error model.
func ParseSpec(spec string) (ErrorModel, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("inject: malformed model %q (want kind:arg)", spec)
	}
	n, err := strconv.ParseInt(arg, 10, 32)
	if err != nil {
		return nil, fmt.Errorf("inject: model %q: %w", spec, err)
	}
	switch kind {
	case "bitflip":
		if n < 0 || n > 15 {
			return nil, fmt.Errorf("inject: model %q: bit out of range", spec)
		}
		return BitFlip{Bit: uint(n)}, nil
	case "stuckat0", "stuckat1":
		if n < 0 || n > 15 {
			return nil, fmt.Errorf("inject: model %q: bit out of range", spec)
		}
		return StuckAt{Bit: uint(n), One: kind == "stuckat1"}, nil
	case "replace":
		if n < 0 || n > 65535 {
			return nil, fmt.Errorf("inject: model %q: value out of range", spec)
		}
		return Replace{Value: uint16(n)}, nil
	case "offset":
		return Offset{Delta: int32(n)}, nil
	default:
		return nil, fmt.Errorf("inject: unknown model kind %q", kind)
	}
}
