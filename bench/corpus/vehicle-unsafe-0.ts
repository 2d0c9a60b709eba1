# expect: unsafe
system vehicle-unsafe-0
var v : real [0, 40]
init v >= 0 and v <= 1
trans v' = v + 0.5 * (4 - 0.01 * v^2)
prop v <= 12
