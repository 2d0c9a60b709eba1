# expect: unsafe
system logistic-unsafe-1
var x : real [0, 1]
init x >= 0.1 and x <= 0.12000000000000001
trans x' = 2.5 * x * (1 - x)
prop x <= 0.46875
