package ekf_test

// Hot-path benchmarks for the EKF step cycle.

import (
	"testing"

	"repro/internal/ekf"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// benchFilter returns a warmed filter plus a steady-state measurement and
// the full active sensor set.
func benchFilter() (*ekf.Filter, sensors.PhysState, sensors.TypeSet) {
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	f := ekf.New(prof)
	f.Init(vehicle.State{Z: 10})
	meas := sensors.TruePhysState(vehicle.State{Z: 10}, [3]float64{}, sensors.BodyField(0))
	active := sensors.NewTypeSet(sensors.AllTypes()...)
	f.Predict(vehicle.Input{Thrust: 9}, 0.01)
	_ = f.Correct(meas, active)
	return f, meas, active
}

func BenchmarkEKFPredict(b *testing.B) {
	f, _, _ := benchFilter()
	u := vehicle.Input{Thrust: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(u, 0.01)
	}
}

func BenchmarkEKFPredictHybrid(b *testing.B) {
	f, meas, active := benchFilter()
	u := vehicle.Input{Thrust: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictHybrid(u, meas, active, 0.01)
	}
}

func BenchmarkEKFCorrect(b *testing.B) {
	f, meas, active := benchFilter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Correct(meas, active); err != nil {
			b.Fatal(err)
		}
	}
}
