# expect: safe
system vehicle-safe-2
var v : real [0, 48.98979485566356]
init v >= 0 and v <= 1
trans v' = v + 0.5 * (6 - 0.01 * v^2)
prop v <= 31.843366656181317
