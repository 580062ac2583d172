module ccba/bench

go 1.24

require ccba v0.0.0

replace ccba => ../
