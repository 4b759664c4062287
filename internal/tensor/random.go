package tensor

import (
	"math"
	"math/rand"
)

// RandUniform fills m with samples from U(-scale, scale) drawn from rng.
func RandUniform(m *Matrix, scale float64, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = float32((rng.Float64()*2 - 1) * scale)
	}
}

// RandNormal fills m with samples from N(0, std²) drawn from rng.
func RandNormal(m *Matrix, std float64, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// XavierInit fills a fanIn×fanOut weight matrix with the Glorot-uniform
// distribution U(±sqrt(6/(fanIn+fanOut))), the initialization used by the
// original Naru/Duet MADE implementations.
func XavierInit(m *Matrix, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	RandUniform(m, limit, rng)
}
