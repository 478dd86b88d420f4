#include <cstdio>

#include "widget/widget.h"

int
main()
{
    std::printf("%d\n", fixture::widgetArea(3, 4));
    return 0;
}
