#include "tile/core_model.h"

namespace m3v::tile {

CoreModel
CoreModel::rocket()
{
    CoreModel m;
    m.name = "rocket";
    m.freqHz = 100'000'000;
    m.mmioReadCycles = 10;
    m.mmioWriteCycles = 7;
    m.trapEnterCycles = 120;
    m.trapExitCycles = 90;
    m.irqOverheadCycles = 50;
    m.addrSpaceSwitchCycles = 120;
    m.regContextCycles = 64;
    m.lineFillCycles = 20;
    return m;
}

CoreModel
CoreModel::boom()
{
    CoreModel m;
    m.name = "boom";
    m.freqHz = 80'000'000;
    m.mmioReadCycles = 14;
    m.mmioWriteCycles = 9;
    m.trapEnterCycles = 180;   // deeper pipeline to flush
    m.trapExitCycles = 130;
    m.irqOverheadCycles = 90;
    m.addrSpaceSwitchCycles = 200;
    m.regContextCycles = 180;
    m.lineFillCycles = 28;
    return m;
}

CoreModel
CoreModel::x86Ooo()
{
    CoreModel m;
    m.name = "x86-ooo";
    m.freqHz = 3'000'000'000ULL;
    m.mmioReadCycles = 60;
    m.mmioWriteCycles = 40;
    m.trapEnterCycles = 500;
    m.trapExitCycles = 400;
    m.irqOverheadCycles = 300;
    m.addrSpaceSwitchCycles = 600;
    m.regContextCycles = 200;
    m.l1iBytes = 32 * 1024;
    m.lineFillCycles = 40;
    return m;
}

} // namespace m3v::tile
