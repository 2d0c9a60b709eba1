# expect: unsafe
system logistic-unsafe-6
var x : real [0, 1]
init x >= 0.05 and x <= 0.07
trans x' = 2.8 * x * (1 - x)
prop x <= 0.5249999999999999
