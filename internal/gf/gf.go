// Package gf implements arithmetic over GF(2^8) with the Rijndael-friendly
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), as used by RAID-6
// P+Q erasure coding. Multiplication is served from log/exp tables — the
// same "Galois Field table" function state that the paper's erasure-coding
// kernels keep resident in the ASSASIN scratchpad (Table II).
package gf

// Poly is the primitive polynomial (without the x^8 term) used for
// reduction: x^8 + x^4 + x^3 + x^2 + 1.
const Poly = 0x1d

// Generator is the field generator used to build the log/exp tables.
const Generator = 0x02

var (
	expTable [512]byte // doubled to avoid a modulo in Mul
	logTable [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		x = mulSlow(x, Generator)
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// mulSlow is carry-less multiplication with reduction, used to build tables
// and as a cross-check in tests.
func mulSlow(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= Poly
		}
		b >>= 1
	}
	return p
}

// Add returns a + b in GF(2^8) (XOR).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8) via the log/exp tables.
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Exp returns Generator^n.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Log returns log_Generator(a). Log(0) panics (log of zero is undefined).
func Log(a byte) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return int(logTable[a])
}

// MulSlice computes dst[i] ^= c * src[i] for all i, the inner loop of RAID-6
// Q-parity generation. dst and src must be the same length.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: MulSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range src {
			dst[i] ^= src[i]
		}
		return
	}
	logC := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[logC+int(logTable[s])]
		}
	}
}

// Tables returns copies of the exp and log tables in the layout the AES/RAID
// kernels place into the simulated scratchpad: 256 bytes of exp (one period)
// followed by 256 bytes of log.
func Tables() (exp, log [256]byte) {
	copy(exp[:], expTable[:256])
	log = logTable
	return
}
