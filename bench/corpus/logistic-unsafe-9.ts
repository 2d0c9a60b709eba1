# expect: unsafe
system logistic-unsafe-9
var x : real [0, 1]
init x >= 0.05 and x <= 0.07
trans x' = 2.5 * x * (1 - x)
prop x <= 0.46875
