module pico/bench

go 1.22

require pico v0.0.0

replace pico => ../
